package obsrv

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"distjoin/internal/metrics"
	"distjoin/internal/niltest"
)

func TestNilRegistryAndNilQueryNoOp(t *testing.T) {
	var r *Registry
	// Every method of the registry and of the handle, present and
	// future, must be callable on nil.
	niltest.CallAll(t, r)
	niltest.CallAll(t, (*Query)(nil))
	if q := r.Begin("AM-KDJ", 10); q != nil {
		t.Fatalf("nil registry Begin returned non-nil handle %v", q)
	}
	if r.InFlight() != 0 || r.Uptime() != 0 {
		t.Fatal("nil registry reported non-zero state")
	}
	s := r.Snapshot()
	if len(s.InFlight) != 0 || len(s.Algos) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("nil registry WriteProm: %v", err)
	}
	if !strings.Contains(buf.String(), "distjoin_inflight_queries 0") {
		t.Fatalf("nil registry exposition missing gauges:\n%s", buf.String())
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	q := r.Begin("AM-KDJ", 10)
	q.SetStage("aggressive")
	q.SetEDmax(2.5)
	q.SetQueueDepth(100, 40, 2)

	s := r.Snapshot()
	if len(s.InFlight) != 1 {
		t.Fatalf("in-flight = %d, want 1", len(s.InFlight))
	}
	qs := s.InFlight[0]
	if qs.Algo != "AM-KDJ" || qs.K != 10 || qs.Stage != "aggressive" {
		t.Fatalf("bad in-flight snapshot %+v", qs)
	}
	if qs.EDmax == nil || *qs.EDmax != 2.5 {
		t.Fatalf("EDmax = %v, want 2.5", qs.EDmax)
	}
	if qs.QueueMem != 100 || qs.QueueDisk != 40 || qs.QueueSegments != 2 {
		t.Fatalf("queue depth %+v", qs)
	}

	mc := &metrics.Collector{}
	mc.AddRealDist(7)
	mc.AddMainQueueInsert(3)
	q.End(mc, nil)
	q.End(mc, errors.New("double")) // idempotent: second call ignored

	s = r.Snapshot()
	if len(s.InFlight) != 0 {
		t.Fatalf("in-flight after End = %d, want 0", len(s.InFlight))
	}
	if len(s.Algos) != 1 {
		t.Fatalf("algos = %d, want 1", len(s.Algos))
	}
	a := s.Algos[0]
	if a.Algo != "AM-KDJ" || a.Queries != 1 || a.Errors != 0 {
		t.Fatalf("bad aggregate %+v", a)
	}
	if a.Stats.RealDistCalcs != 7 {
		t.Fatalf("stats not folded: %+v", a.Stats)
	}
	if a.Latency.Count != 1 || a.DistCalcs.Count != 1 || a.QueueInserts.Count != 1 {
		t.Fatalf("histograms not fed: %+v", a)
	}

	// An erroring query counts as an error.
	q2 := r.Begin("AM-KDJ", 5)
	q2.End(nil, errors.New("boom"))
	a = r.Snapshot().Algos[0]
	if a.Queries != 2 || a.Errors != 1 {
		t.Fatalf("after error: queries=%d errors=%d", a.Queries, a.Errors)
	}
}

func TestRecordEstimate(t *testing.T) {
	r := NewRegistry()
	q := r.Begin("AM-IDJ", 100)
	q.RecordEstimate(0.5, 1.0, ModeInitial)    // under
	q.RecordEstimate(2.0, 1.0, ModeArithmetic) // over
	q.RecordEstimate(1.0, 1.0, ModeGeometric)  // exact counts as over
	// Dropped samples: degenerate or non-finite.
	q.RecordEstimate(1, 0, ModeInitial)
	q.RecordEstimate(1, math.Inf(1), ModeInitial)
	q.RecordEstimate(math.NaN(), 1, ModeInitial)
	q.RecordEstimate(math.Inf(1), 1, ModeInitial)
	q.RecordEstimate(-1, 1, ModeInitial)
	q.End(nil, nil)

	a := r.Snapshot().Algos[0]
	if a.EstimateRatio.Count != 3 {
		t.Fatalf("ratio samples = %d, want 3", a.EstimateRatio.Count)
	}
	if a.Underestimates != 1 || a.Overestimates != 2 {
		t.Fatalf("under=%d over=%d, want 1/2", a.Underestimates, a.Overestimates)
	}
	if a.Corrections[ModeInitial] != 1 || a.Corrections[ModeArithmetic] != 1 || a.Corrections[ModeGeometric] != 1 {
		t.Fatalf("corrections %v", a.Corrections)
	}
}

func TestSnapshotSortsAlgosAndQueries(t *testing.T) {
	r := NewRegistry()
	r.Begin("HS-KDJ", 1).End(nil, nil)
	r.Begin("AM-KDJ", 1).End(nil, nil)
	r.Begin("B-KDJ", 1).End(nil, nil)
	r.Begin("X", 1).End(nil, nil) // aggregates appear on completion...
	q1 := r.Begin("X", 1)         // ...in-flight entries on Begin
	q2 := r.Begin("X", 2)
	_ = q1
	_ = q2
	s := r.Snapshot()
	var names []string
	for _, a := range s.Algos {
		names = append(names, a.Algo)
	}
	want := []string{"AM-KDJ", "B-KDJ", "HS-KDJ", "X"}
	if len(names) != len(want) {
		t.Fatalf("algos %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("algos %v not sorted, want %v", names, want)
		}
	}
	if len(s.InFlight) != 2 || s.InFlight[0].ID >= s.InFlight[1].ID {
		t.Fatalf("in-flight not ID-sorted: %+v", s.InFlight)
	}
}

// TestSnapshotJSONRoundTrips guards the /queries and /debug/vars
// surfaces: a snapshot with a not-yet-estimated eDmax (internally NaN)
// must encode cleanly.
func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	q := r.Begin("AM-KDJ", 10) // eDmax never set: stays NaN internally
	defer q.End(nil, nil)
	q2 := r.Begin("AM-IDJ", 5)
	q2.SetEDmax(math.Inf(1)) // infinite cutoff must not leak into JSON
	defer q2.End(nil, nil)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	for _, qs := range back.InFlight {
		if qs.EDmax != nil {
			t.Fatalf("unestimated/non-finite eDmax leaked: %+v", qs)
		}
	}
}

// TestRegistryReset pins the repeated-run hygiene contract: Reset
// clears completed aggregates and restarts the clock, but leaves
// in-flight queries registered — and their later End lands in the
// fresh aggregates rather than vanishing or panicking.
func TestRegistryReset(t *testing.T) {
	var nilReg *Registry
	nilReg.Reset() // nil-safe like every other method

	r := NewRegistry()
	q := r.Begin("AM-KDJ", 10)
	q.End(&metrics.Collector{}, nil)
	if got := r.Snapshot(); len(got.Algos) != 1 || got.Algos[0].Queries != 1 {
		t.Fatalf("pre-reset snapshot: %+v", got.Algos)
	}

	live := r.Begin("B-KDJ", 5) // in flight across the reset
	r.Reset()
	s := r.Snapshot()
	if len(s.Algos) != 0 {
		t.Fatalf("post-reset aggregates survive: %+v", s.Algos)
	}
	if len(s.InFlight) != 1 || s.InFlight[0].Algo != "B-KDJ" {
		t.Fatalf("post-reset in-flight: %+v", s.InFlight)
	}
	if r.InFlight() != 1 {
		t.Fatalf("InFlight() = %d after reset, want 1", r.InFlight())
	}

	live.End(&metrics.Collector{}, nil)
	s = r.Snapshot()
	if len(s.InFlight) != 0 {
		t.Fatalf("query still in flight after End: %+v", s.InFlight)
	}
	if len(s.Algos) != 1 || s.Algos[0].Algo != "B-KDJ" || s.Algos[0].Queries != 1 {
		t.Fatalf("post-reset End not aggregated: %+v", s.Algos)
	}
}
