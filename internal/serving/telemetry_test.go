package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"distjoin"
)

// newTelemetry builds a finished-looking reqTelemetry against s,
// already carrying status.
func newTelemetry(s *Server, family string, status int) *reqTelemetry {
	return &reqTelemetry{
		s:       s,
		status:  status,
		family:  family,
		queryID: s.mintQueryID(),
		start:   time.Now(),
	}
}

// TestSlowThresholdBoundary pins the classification contract: a
// request whose latency lands exactly on the threshold is NOT slow;
// one nanosecond over is.
func TestSlowThresholdBoundary(t *testing.T) {
	threshold := 250 * time.Millisecond
	s := New(Config{Registry: distjoin.NewRegistry(), SlowQueryThreshold: threshold})
	defer s.Close()

	s.recordRequest(newTelemetry(s, "join/k", http.StatusOK), threshold)
	if got := s.slow.snapshot(); len(got) != 0 {
		t.Fatalf("elapsed == threshold logged as slow: %+v", got)
	}
	if n := s.metrics.Snapshot().Counters[distjoin.ServingSlowQueries]; n != 0 {
		t.Fatalf("slow counter after exactly-at-threshold request: %d, want 0", n)
	}

	over := newTelemetry(s, "join/k", http.StatusOK)
	s.recordRequest(over, threshold+time.Nanosecond)
	got := s.slow.snapshot()
	if len(got) != 1 {
		t.Fatalf("elapsed just over threshold: %d slow entries, want 1", len(got))
	}
	if got[0].QueryID != over.queryID {
		t.Fatalf("slow entry query_id %q, want %q", got[0].QueryID, over.queryID)
	}
	if n := s.metrics.Snapshot().Counters[distjoin.ServingSlowQueries]; n != 1 {
		t.Fatalf("slow counter: %d, want 1", n)
	}
}

// TestSlowLogRingEviction: the ring keeps the most recent entries and
// snapshots them oldest-first.
func TestSlowLogRingEviction(t *testing.T) {
	l := newSlowLog(3)
	for i := 0; i < 5; i++ {
		l.push(slowLogEntry{QueryID: fmt.Sprintf("q-%d", i)})
	}
	got := l.snapshot()
	want := []string{"q-2", "q-3", "q-4"}
	if len(got) != len(want) {
		t.Fatalf("ring holds %d entries, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].QueryID != id {
			t.Fatalf("entry %d = %q, want %q (oldest first)", i, got[i].QueryID, id)
		}
	}
}

// syncBuffer serializes writes so the slog handler (invoked on request
// goroutines) and the test's reads don't race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogSchema: a request served over a real listener logs one
// parseable line carrying every key of RequestLogKeys. Runs under
// -race in CI, guarding the logging path against data races with
// concurrent telemetry.
func TestRequestLogSchema(t *testing.T) {
	var logBuf syncBuffer
	_, left, right, h := testServer(t, Config{
		Registry:           distjoin.NewRegistry(),
		Logger:             slog.New(slog.NewJSONHandler(&logBuf, nil)),
		SlowQueryThreshold: time.Nanosecond, // everything is slow
	})
	_, _ = left, right

	code, body := postJSON(t, http.DefaultClient, h.URL+"/v1/join/k",
		kDistanceRequest{Left: "left", Right: "right", K: 5})
	if code != http.StatusOK {
		t.Fatalf("query: %d: %s", code, body)
	}

	lines := bytes.Split(bytes.TrimSpace([]byte(logBuf.String())), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("no request log line emitted")
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if rec["msg"] != "request" {
		t.Fatalf("log msg %q, want \"request\"", rec["msg"])
	}
	if rec["level"] != "WARN" {
		t.Fatalf("slow request logged at %v, want WARN", rec["level"])
	}
	// Every key of the exported schema is on the line (the rendered
	// bytes are pinned by TestRequestRecordGolden).
	for _, key := range RequestLogKeys() {
		if _, ok := rec[key]; !ok {
			t.Errorf("log line has no key %q", key)
		}
	}
	if slow, ok := rec["slow"].(bool); !ok || !slow {
		t.Errorf("log key slow = %v, want true", rec["slow"])
	}
	if rec["family"] != "join/k" {
		t.Errorf("family %v, want join/k", rec["family"])
	}
	if rec["status"] != float64(http.StatusOK) {
		t.Errorf("status %v, want 200", rec["status"])
	}
}

// TestQueryIDCorrelation: the minted ID appears as the response
// header, in the response body, and on the registry's in-flight /
// query accounting path.
func TestQueryIDCorrelation(t *testing.T) {
	reg := distjoin.NewRegistry()
	_, _, _, h := testServer(t, Config{Registry: reg})

	b, _ := json.Marshal(kDistanceRequest{Left: "left", Right: "right", K: 5})
	resp, err := http.Post(h.URL+"/v1/join/k", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	qid := resp.Header.Get("X-Distjoin-Query-Id")
	if qid == "" {
		t.Fatal("no X-Distjoin-Query-Id response header")
	}
	if resp.Header.Get("X-Distjoin-Admission-Wait") == "" {
		t.Fatal("no X-Distjoin-Admission-Wait response header")
	}
	var out queryJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.QueryID != qid {
		t.Fatalf("body query_id %q != header %q", out.QueryID, qid)
	}

	// A second request gets a distinct ID.
	resp2, err := http.Post(h.URL+"/v1/join/k", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if qid2 := resp2.Header.Get("X-Distjoin-Query-Id"); qid2 == qid {
		t.Fatalf("two requests share query ID %q", qid)
	}
}

// TestExplainRoundtrip: ?explain=1 embeds the trace timeline, and its
// dist-calc total matches the response's stats block exactly (both
// read the same collector). SJ-SORT has no stage events; its timeline
// is the expansions of its spatial-join phase.
func TestExplainRoundtrip(t *testing.T) {
	_, _, _, h := testServer(t, Config{Registry: distjoin.NewRegistry()})

	for _, req := range []kDistanceRequest{
		{Left: "left", Right: "right", K: 25},
		{Left: "left", Right: "right", K: 25, Algorithm: "sj", MaxDist: 50},
	} {
		code, body := postJSON(t, http.DefaultClient, h.URL+"/v1/join/k?explain=1", req)
		if code != http.StatusOK {
			t.Fatalf("explain query %+v: %d: %s", req, code, body)
		}
		var out queryJSON
		decodeInto(t, body, &out)
		if out.Explain == nil {
			t.Fatalf("%+v: ?explain=1 response has no explain block", req)
		}
		ex := out.Explain
		if len(ex.Events) == 0 || ex.Summary.Expansions == 0 {
			t.Fatalf("%+v: explain block has %d trace events, %d expansions", req, len(ex.Events), ex.Summary.Expansions)
		}
		if req.Algorithm == "" && len(ex.Summary.Stages) == 0 {
			t.Fatal("explain summary has no stage spans")
		}
		for _, sp := range ex.Summary.Stages {
			if sp.EndUS < sp.StartUS {
				t.Fatalf("stage %s/%s: end %d before start %d", sp.Algo, sp.Stage, sp.EndUS, sp.StartUS)
			}
		}
		if ex.Summary.DistCalcs != out.Stats.DistCalcs {
			t.Fatalf("%+v: explain dist_calcs %d != stats dist_calcs %d (must share one collector)",
				req, ex.Summary.DistCalcs, out.Stats.DistCalcs)
		}
		if ex.Summary.QueueInserts != out.Stats.QueueInserts {
			t.Fatalf("%+v: explain queue_inserts %d != stats queue_inserts %d",
				req, ex.Summary.QueueInserts, out.Stats.QueueInserts)
		}
	}

	// Without the parameter the block is absent.
	code, body := postJSON(t, http.DefaultClient, h.URL+"/v1/join/k",
		kDistanceRequest{Left: "left", Right: "right", K: 25})
	if code != http.StatusOK {
		t.Fatalf("plain query: %d: %s", code, body)
	}
	var plain queryJSON
	decodeInto(t, body, &plain)
	if plain.Explain != nil {
		t.Fatal("explain block present without ?explain=1")
	}
}

// TestSlowLogEndpoint: slow queries surface on /debug/slowlog with the
// slowLogEntry schema, and the endpoint wins the mux precedence
// contest against the /debug/ observability catch-all.
func TestSlowLogEndpoint(t *testing.T) {
	_, _, _, h := testServer(t, Config{
		Registry:           distjoin.NewRegistry(),
		SlowQueryThreshold: time.Nanosecond,
	})

	code, body := postJSON(t, http.DefaultClient, h.URL+"/v1/join/k",
		kDistanceRequest{Left: "left", Right: "right", K: 5})
	if code != http.StatusOK {
		t.Fatalf("query: %d: %s", code, body)
	}

	resp, err := http.Get(h.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slowlog: %d", resp.StatusCode)
	}
	var out struct {
		ThresholdMS int64          `json:"threshold_ms"`
		Entries     []slowLogEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) == 0 {
		t.Fatal("slow query not retained in /debug/slowlog")
	}
	e := out.Entries[len(out.Entries)-1]
	if e.Family != "join/k" || e.QueryID == "" || e.Status != http.StatusOK {
		t.Fatalf("slowlog entry %+v: want family join/k, non-empty query_id, status 200", e)
	}
}

// TestRetryAfterSeconds pins the 429 backoff pricing: ceil((depth+1) /
// rate), clamped to [1, 60], with a floor fallback when the rate is
// unknown.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth int
		rate  float64
		want  int
	}{
		{depth: 0, rate: 0, want: 1},    // cold server: floor
		{depth: 100, rate: -1, want: 1}, // nonsense rate: floor
		{depth: 0, rate: 10, want: 1},   // one ahead, fast drain
		{depth: 9, rate: 10, want: 1},   // 10 ahead at 10/s
		{depth: 10, rate: 10, want: 2},  // 11 ahead at 10/s: ceil
		{depth: 99, rate: 2, want: 50},
		{depth: 10_000, rate: 1, want: 60}, // clamp at 60s
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.rate); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %g) = %d, want %d", c.depth, c.rate, got, c.want)
		}
	}
}

// TestShedHeaders: a queue-full rejection carries the drain-rate
// priced Retry-After and the observed queue depth.
func TestShedHeaders(t *testing.T) {
	s := New(Config{Registry: distjoin.NewRegistry()})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeError(rec, errQueueFull)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After %q, want integer in [1, 60]", rec.Header().Get("Retry-After"))
	}
	if _, err := strconv.Atoi(rec.Header().Get("X-Queue-Depth")); err != nil {
		t.Fatalf("X-Queue-Depth %q, want integer", rec.Header().Get("X-Queue-Depth"))
	}
}

// TestDrainTrackerRate: completions observed over a full window become
// the published rate; an idle tracker reports zero (falling back to
// the Retry-After floor).
func TestDrainTrackerRate(t *testing.T) {
	var d drainTracker
	base := time.Now()
	if r := d.ratePerSec(base); r != 0 {
		t.Fatalf("cold tracker rate %g, want 0", r)
	}
	for i := 0; i < 30; i++ {
		d.observe()
	}
	got := d.ratePerSec(base.Add(2 * time.Second)) // full window: 30 done in 2s
	if got < 14 || got > 16 {
		t.Fatalf("windowed rate %g, want ~15", got)
	}
	// Inside the next window the last full-window rate still applies.
	if r := d.ratePerSec(base.Add(2*time.Second + 100*time.Millisecond)); r != got {
		t.Fatalf("in-window rate %g, want last window's %g", r, got)
	}
}
