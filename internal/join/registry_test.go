package join

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
	"distjoin/internal/obsrv"
)

// TestRegistryOffNoAllocs extends the zero-cost contract of
// TestTraceOffNoAllocs to the observability registry: with
// Options.Registry nil, the begin/progress/end hooks sitting on the
// per-expansion hot path must not allocate.
func TestRegistryOffNoAllocs(t *testing.T) {
	// opts.Registry == nil
	c := &execContext{algo: "AM-KDJ", stage: "aggressive", queue: hybridq.New(hybridq.Config{})}
	allocs := testing.AllocsPerRun(200, func() {
		c.beginQuery(10) // nil registry -> nil handle
		c.rq.SetStage("aggressive")
		c.rq.SetEDmax(2.5)
		c.rq.SetQueueDepth(1, 2, 3)
		c.recordEstimate(1.5, 1.0, obsrv.ModeInitial)
		if err := c.cancelled(); err != nil {
			t.Fatal(err)
		}
		c.endQuery(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-registry hooks allocate %v times per run, want 0", allocs)
	}
}

// TestRegistryIntegrationBlocking runs every blocking algorithm with a
// shared registry and checks the per-algorithm aggregates: one
// completed query each, latency and work histograms fed, collector
// stats folded, and (for AM-KDJ) an eDmax-accuracy sample labeled with
// the initial-estimate mode.
func TestRegistryIntegrationBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 400, w, 10)
	r := datagen.Uniform(rng.Int63(), 300, w, 10)
	lt, rt := buildTree(t, l, 16), buildTree(t, r, 16)
	const k = 50

	reg := obsrv.NewRegistry()
	opts := Options{Registry: reg}
	if _, err := AMKDJ(lt, rt, k, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := BKDJ(lt, rt, k, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := HSKDJ(lt, rt, k, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := SJSort(lt, rt, k, 100, opts); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if len(s.InFlight) != 0 {
		t.Fatalf("queries still in flight after completion: %+v", s.InFlight)
	}
	byAlgo := make(map[string]obsrv.AlgoSnapshot, len(s.Algos))
	for _, a := range s.Algos {
		byAlgo[a.Algo] = a
	}
	for _, name := range []string{"AM-KDJ", "B-KDJ", "HS-KDJ", "SJ-SORT"} {
		a, ok := byAlgo[name]
		if !ok {
			t.Fatalf("%s missing from registry aggregates (have %v)", name, s.Algos)
		}
		if a.Queries != 1 || a.Errors != 0 {
			t.Errorf("%s: queries=%d errors=%d, want 1/0", name, a.Queries, a.Errors)
		}
		if a.Latency.Count != 1 || a.Latency.Sum <= 0 {
			t.Errorf("%s: latency histogram %+v, want one positive sample", name, a.Latency)
		}
		if a.DistCalcs.Count != 1 || a.Stats.DistCalcs() == 0 {
			t.Errorf("%s: collector stats not folded (hist %+v, stats %d)",
				name, a.DistCalcs, a.Stats.DistCalcs())
		}
	}
	am := byAlgo["AM-KDJ"]
	if am.EstimateRatio.Count != 1 {
		t.Fatalf("AM-KDJ estimate-ratio samples = %d, want 1", am.EstimateRatio.Count)
	}
	if am.Corrections[obsrv.ModeInitial] != 1 {
		t.Fatalf("AM-KDJ corrections = %v, want one %q", am.Corrections, obsrv.ModeInitial)
	}
	if am.Underestimates+am.Overestimates != 1 {
		t.Fatalf("AM-KDJ under+over = %d+%d, want exactly 1 classified sample",
			am.Underestimates, am.Overestimates)
	}
}

// TestRegistryIntegrationIterators covers the incremental algorithms:
// a drained iterator ends its registry query on its own; an abandoned
// one ends it via Close. Either way nothing is left in flight.
func TestRegistryIntegrationIterators(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 200, w, 10)
	r := datagen.Uniform(rng.Int63(), 150, w, 10)
	lt, rt := buildTree(t, l, 16), buildTree(t, r, 16)

	reg := obsrv.NewRegistry()
	// Small stages so the drain below crosses several stage boundaries
	// and the correction-mode telemetry fires.
	opts := Options{Registry: reg, BatchK: 32}

	// AM-IDJ, drained past several stages so correction modes fire.
	it, err := AMIDJ(lt, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	it.Close() // drained or not, Close is idempotent with the internal End

	// HS-IDJ, abandoned early: only Close ends the query.
	hit, err := HSIDJ(lt, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hit.Next(); !ok {
		t.Fatal("HS-IDJ produced nothing")
	}
	hit.Close()
	hit.Close() // double Close must be harmless

	s := reg.Snapshot()
	if len(s.InFlight) != 0 {
		t.Fatalf("iterator queries leaked in flight: %+v", s.InFlight)
	}
	byAlgo := make(map[string]obsrv.AlgoSnapshot)
	for _, a := range s.Algos {
		byAlgo[a.Algo] = a
	}
	if a := byAlgo["AM-IDJ"]; a.Queries != 1 {
		t.Fatalf("AM-IDJ aggregate %+v, want 1 query", a)
	}
	if a := byAlgo["HS-IDJ"]; a.Queries != 1 {
		t.Fatalf("HS-IDJ aggregate %+v, want 1 query", a)
	}
	// Drained AM-IDJ must have recorded at least one per-stage
	// accuracy sample with a correction-mode label.
	if a := byAlgo["AM-IDJ"]; a.EstimateRatio.Count == 0 || len(a.Corrections) == 0 {
		t.Fatalf("AM-IDJ recorded no eDmax accuracy telemetry: %+v", a)
	}
}

// TestRegistryErrorPath: a cancelled query must end up in the error
// count, not in flight.
func TestRegistryErrorPath(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 600, w, 10)
	r := datagen.Uniform(rng.Int63(), 600, w, 10)
	lt, rt := buildTree(t, l, 8), buildTree(t, r, 8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obsrv.NewRegistry()
	// Large k so the join loops well past the cancellation poll interval.
	if _, err := AMKDJ(lt, rt, 5000, Options{Registry: reg, Context: ctx}); err == nil {
		t.Fatal("pre-cancelled AM-KDJ did not fail")
	}
	s := reg.Snapshot()
	if len(s.InFlight) != 0 {
		t.Fatalf("cancelled query left in flight: %+v", s.InFlight)
	}
	if len(s.Algos) != 1 || s.Algos[0].Errors != 1 || s.Algos[0].Queries != 1 {
		t.Fatalf("cancelled query aggregate %+v, want queries=1 errors=1", s.Algos)
	}
}

// TestRegistryFollowsAMIDJStages: the live /queries entry of an AM-IDJ
// iterator shows the stage it is in and that stage's cutoff after every
// result, in the first stage and in every compensation stage.
func TestRegistryFollowsAMIDJStages(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	w := geom.NewRect(0, 0, 1000, 1000)
	lt := buildTree(t, datagen.Uniform(rng.Int63(), 400, w, 10), 16)
	rt := buildTree(t, datagen.Uniform(rng.Int63(), 300, w, 10), 16)
	reg := obsrv.NewRegistry()
	var mc metrics.Collector
	it, err := AMIDJ(lt, rt, Options{Registry: reg, BatchK: 20, Metrics: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for n := 1; n <= 300; n++ {
		if _, ok := it.Next(); !ok {
			t.Fatalf("the join ended after %d results", n-1)
		}
		want := "stage-1"
		if mc.CompensationStages > 0 {
			want = "compensation"
		}
		s := reg.Snapshot()
		if len(s.InFlight) != 1 {
			t.Fatalf("%d queries in flight, want the iterator's", len(s.InFlight))
		}
		q, shown := s.InFlight[0], math.NaN()
		if q.EDmax != nil {
			shown = *q.EDmax
		}
		if q.Stage != want || shown != it.EDmax() {
			t.Fatalf("after %d results in compensation stage %d (eDmax %v), /queries shows stage %q, eDmax %v",
				n, mc.CompensationStages, it.EDmax(), q.Stage, shown)
		}
	}
	if mc.CompensationStages < 5 {
		t.Fatalf("only %d compensation stages; the test needs several", mc.CompensationStages)
	}
}
