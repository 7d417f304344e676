package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"distjoin/internal/niltest"
)

func TestRingWrap(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindExpansion, Count: int64(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d events, want 4", len(evs))
	}
	// The survivors are the four newest, in order, with gapless
	// sequence numbers assigned at emission time.
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, want)
		}
		if want := int64(6 + i); ev.Count != want {
			t.Errorf("event %d Count = %d, want %d", i, ev.Count, want)
		}
	}
}

func TestNewClampsCapacity(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		tr := New(capacity)
		for i := 0; i < DefaultCapacity+1; i++ {
			tr.Emit(Event{Kind: KindExpansion})
		}
		if got := tr.Len(); got != DefaultCapacity {
			t.Fatalf("New(%d): Len = %d, want DefaultCapacity %d", capacity, got, DefaultCapacity)
		}
		if got := tr.Dropped(); got != 1 {
			t.Fatalf("New(%d): Dropped = %d, want 1", capacity, got)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	niltest.CallAll(t, tr) // every method, present and future, must not panic
	if tr.Enabled() {
		t.Error("nil tracer reports Enabled")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.CountKind(KindError) != 0 {
		t.Error("nil tracer reports nonzero state")
	}
	if evs := tr.Events(); evs != nil {
		t.Errorf("nil tracer Events = %v, want nil", evs)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	var dump struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("nil tracer WriteJSON output invalid: %v", err)
	}
	if dump.Dropped != 0 || len(dump.Events) != 0 {
		t.Errorf("nil tracer dump = %+v, want empty", dump)
	}
}

func TestResetKeepsSequence(t *testing.T) {
	tr := New(8)
	tr.Emit(Event{Kind: KindStageStart})
	tr.Emit(Event{Kind: KindStageEnd})
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("Reset left Len=%d Dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Emit(Event{Kind: KindExpansion})
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("after Reset, first event Seq = %d, want 3 (sequence keeps increasing)", evs[0].Seq)
	}
}

func TestCountKind(t *testing.T) {
	tr := New(16)
	tr.Emit(Event{Kind: KindStageStart, Algo: "AM-KDJ"})
	tr.Emit(Event{Kind: KindExpansion, Count: 1})
	tr.Emit(Event{Kind: KindExpansion, Count: 2})
	tr.Emit(Event{Kind: KindQueueSpill, Count: 50})
	tr.Emit(Event{Kind: KindStageEnd})
	if got := tr.CountKind(KindExpansion); got != 2 {
		t.Errorf("CountKind(expansion) = %d, want 2", got)
	}
	if got := tr.CountKind(KindQueueSpill); got != 1 {
		t.Errorf("CountKind(queue_spill) = %d, want 1", got)
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := uint64(i + 1); ev.Seq != want {
			t.Fatalf("event %d Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	tr := New(2)
	tr.Emit(Event{Kind: KindStageStart, Algo: "AM-KDJ", Stage: "aggressive", EDmax: 1.5})
	tr.Emit(Event{Kind: KindExpansion, Dist: 0.25, Count: 9, LeftLevel: 2, RightLevel: -1})
	tr.Emit(Event{Kind: KindError, Err: "boom"}) // wraps: drops the stage_start
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("WriteJSON output invalid: %v", err)
	}
	if dump.Dropped != 1 {
		t.Errorf("dump.Dropped = %d, want 1", dump.Dropped)
	}
	if len(dump.Events) != 2 {
		t.Fatalf("dump has %d events, want 2", len(dump.Events))
	}
	if ev := dump.Events[0]; ev.Kind != KindExpansion || ev.Count != 9 || ev.RightLevel != -1 {
		t.Errorf("round-tripped expansion = %+v", ev)
	}
	if ev := dump.Events[1]; ev.Kind != KindError || ev.Err != "boom" {
		t.Errorf("round-tripped error = %+v", ev)
	}
	// Zero-valued fields must be omitted from the wire form.
	if bytes.Contains(buf.Bytes(), []byte(`"edmax": 0`)) {
		t.Error("zero edmax not omitted from JSON")
	}
}

// A cutoff that has not tightened yet is +Inf (e.g. B-KDJ's starting
// qDmax), and encoding/json rejects infinities — WriteJSON must render
// such events with the field absent instead of failing the whole dump.
func TestWriteJSONNonFiniteEDmax(t *testing.T) {
	tr := New(8)
	tr.Emit(Event{Kind: KindExpansion, Algo: "B-KDJ", EDmax: math.Inf(1), Dist: 1.5, Count: 3})
	tr.Emit(Event{Kind: KindEDmaxUpdate, Algo: "B-KDJ", EDmax: 2.5, Dist: math.Inf(1)})
	tr.Emit(Event{Kind: KindExpansion, Algo: "AM-KDJ", EDmax: math.NaN()})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with +Inf/NaN fields: %v", err)
	}
	var dump struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("output invalid JSON: %v", err)
	}
	if n := len(dump.Events); n != 3 {
		t.Fatalf("got %d events, want 3", n)
	}
	if _, ok := dump.Events[0]["edmax"]; ok {
		t.Errorf("infinite edmax should be omitted, got %v", dump.Events[0]["edmax"])
	}
	if got := dump.Events[0]["dist"]; got != 1.5 {
		t.Errorf("finite dist dropped: got %v, want 1.5", got)
	}
	if got := dump.Events[1]["edmax"]; got != 2.5 {
		t.Errorf("finite edmax dropped: got %v, want 2.5", got)
	}
	if _, ok := dump.Events[1]["dist"]; ok {
		t.Errorf("infinite dist should be omitted, got %v", dump.Events[1]["dist"])
	}
}
