package serving

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"distjoin"
)

// The tagged-struct forms the pair responses had when encoding/json
// rendered them. They are the reference the append encoder must match
// byte for byte, and what the tests decode responses into.

type pairJSON struct {
	Left  int64   `json:"left"`
	Right int64   `json:"right"`
	Dist  float64 `json:"dist"`
}

type queryJSON struct {
	QueryID   string       `json:"query_id,omitempty"`
	Pairs     []pairJSON   `json:"pairs"`
	Truncated bool         `json:"truncated,omitempty"`
	Stats     statsJSON    `json:"stats"`
	Explain   *explainJSON `json:"explain,omitempty"`
}

type incrementalJSON struct {
	QueryID    string     `json:"query_id,omitempty"`
	Cursor     string     `json:"cursor,omitempty"`
	Pairs      []pairJSON `json:"pairs"`
	Done       bool       `json:"done"`
	Returned   int64      `json:"returned"`
	DeadlineMS int64      `json:"deadline_ms"`
}

// wirePairs is pairs in the reference form; never nil.
func wirePairs(pairs []distjoin.Pair) []pairJSON {
	out := make([]pairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = pairJSON{Left: p.LeftID, Right: p.RightID, Dist: p.Dist}
	}
	return out
}

// referenceJSON is what encoding/json's Encoder writes for v: nothing
// when it cannot render it.
func referenceJSON(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v)
	return b.Bytes()
}

// appended is what the append encoder writes for r.
func appended(t *testing.T, r pairsResponse) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeAppended(&b, r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkShapes renders pairs in each of the three response shapes that carry
// them — a k-join's, a truncated within's, a cursor page's — and
// compares each with its reference form.
func checkShapes(t *testing.T, pairs []distjoin.Pair, id string, n int64, f float64, explain *explainJSON) {
	t.Helper()
	stats := statsJSON{ElapsedMS: f, DistCalcs: n, QueueInserts: -n, NodesRead: n / 3}
	shapes := []struct {
		name string
		got  pairsResponse
		want any
	}{
		{"query",
			&queryResponse{QueryID: id, Pairs: pairs, Stats: stats, Explain: explain},
			queryJSON{QueryID: id, Pairs: wirePairs(pairs), Stats: stats, Explain: explain}},
		{"within",
			&queryResponse{QueryID: id, Pairs: pairs, Truncated: n%2 == 0, Stats: stats},
			queryJSON{QueryID: id, Pairs: wirePairs(pairs), Truncated: n%2 == 0, Stats: stats}},
		{"cursor page",
			&incrementalResponse{QueryID: id, Cursor: id + id, Pairs: pairs, Done: n%3 == 0, Returned: n, DeadlineMS: -n},
			incrementalJSON{QueryID: id, Cursor: id + id, Pairs: wirePairs(pairs), Done: n%3 == 0, Returned: n, DeadlineMS: -n}},
	}
	for _, s := range shapes {
		got, want := appended(t, s.got), referenceJSON(s.want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s shape:\n got %q\nwant %q", s.name, got, want)
		}
	}
}

// FuzzAppendJSON: for random pair lists and response fields the append
// encoder writes exactly what encoding/json writes for the reference
// form, in all three shapes — nothing at all where encoding/json fails
// (a NaN or infinite distance or elapsed time). Every 24 bytes of data
// are one pair: left ID, right ID and the bits of the distance.
func FuzzAppendJSON(f *testing.F) {
	seed := func(id string, n int64, elapsed float64, pairs ...[3]uint64) {
		var data []byte
		for _, p := range pairs {
			for _, v := range p {
				data = binary.LittleEndian.AppendUint64(data, v)
			}
		}
		f.Add(data, id, n, elapsed)
	}
	bits := math.Float64bits
	seed("", 0, 0)
	seed("q-1", 7, 1.25,
		[3]uint64{0, 0, bits(0)},
		[3]uint64{1, 2, bits(math.Copysign(0, -1))},
		[3]uint64{3, 4, bits(5e-324)},
		[3]uint64{5, 6, bits(1e-7)},
		[3]uint64{7, 8, bits(1e-6)},
		[3]uint64{9, 10, bits(1e21)},
		[3]uint64{11, 12, bits(1e20)},
		[3]uint64{13, 14, bits(math.MaxFloat64)},
		[3]uint64{1 << 63, 1<<63 - 1, bits(-2.5)},
		[3]uint64{math.MaxUint64, 1 << 48, bits(123456.789)})
	seed("<&>\"\\ é", -1, 1e-9, [3]uint64{1, 1, bits(0.1)})
	seed("q", 2, 3, [3]uint64{1, 1, bits(math.NaN())})
	seed("q", 3, 4, [3]uint64{1, 1, bits(math.Inf(1))})
	seed("q", 4, math.Inf(-1))
	f.Fuzz(func(t *testing.T, data []byte, id string, n int64, elapsed float64) {
		pairs := make([]distjoin.Pair, 0, len(data)/24)
		for ; len(data) >= 24; data = data[24:] {
			pairs = append(pairs, distjoin.Pair{
				LeftID:  int64(binary.LittleEndian.Uint64(data)),
				RightID: int64(binary.LittleEndian.Uint64(data[8:])),
				Dist:    math.Float64frombits(binary.LittleEndian.Uint64(data[16:])),
			})
		}
		checkShapes(t, pairs, id, n, elapsed, nil)
	})
}

// TestAppendJSONChunks: a response several chunks long, with an explain
// block, renders byte-identically, and no Write is longer than one
// buffer: the encoder's memory does not grow with the response.
func TestAppendJSONChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pairs := make([]distjoin.Pair, 5000)
	for i := range pairs {
		pairs[i] = distjoin.Pair{LeftID: rng.Int63(), RightID: -rng.Int63(), Dist: rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(60)-30))}
	}
	explain := &explainJSON{
		Events:  []distjoin.TraceEvent{{Kind: distjoin.TraceKindExpansion, Algo: "AM-KDJ", Dist: 1.5, EDmax: math.Inf(1)}},
		Dropped: 2,
		Summary: explainSummary{DurationUS: 10, Stages: []stageSpan{{Stage: "aggressive", EndUS: 4, DurationUS: 4}}},
	}
	checkShapes(t, pairs, "srv-12", 41, 17.5, explain)

	var w chunkRecorder
	if err := writeAppended(&w, &queryResponse{Pairs: pairs, Explain: explain}); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < 2 {
		t.Fatalf("%d pairs went out in %d writes; the test needs several chunks", len(pairs), len(w.sizes))
	}
	for i, n := range w.sizes {
		if n > jsonChunk+maxPairJSON {
			t.Errorf("write %d is %d bytes, over one buffer of %d", i, n, jsonChunk+maxPairJSON)
		}
	}
}

// chunkRecorder records the size of every Write.
type chunkRecorder struct{ sizes []int }

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return len(p), nil
}

// TestAppendJSONAllocs: rendering a page of pairs takes its buffer from
// the pool and allocates nothing, however many chunks it writes.
func TestAppendJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under the race detector; allocation counts are not meaningful")
	}
	pairs := make([]distjoin.Pair, maxPageSize)
	for i := range pairs {
		pairs[i] = distjoin.Pair{LeftID: int64(i), RightID: int64(3 * i), Dist: float64(i) / 7}
	}
	page := &incrementalResponse{QueryID: "srv-1", Cursor: "0123456789abcdef01234567", Pairs: pairs, Returned: maxPageSize}
	var w chunkRecorder
	if avg := testing.AllocsPerRun(20, func() {
		w.sizes = w.sizes[:0]
		if err := writeAppended(&w, page); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("rendering a %d-pair page allocates %v times, want 0", len(pairs), avg)
	}
}
