package join

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/storage"
	"distjoin/internal/trace"
)

// TestTraceDeterminism is the acceptance property of the observability
// layer: installing a tracer must not perturb results. A traced run
// must match the untraced baseline exactly, and the trace itself must
// contain the expected structural events.
func TestTraceDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 500, w, 10)
	r := datagen.Uniform(rng.Int63(), 400, w, 10)
	left, right := buildTree(t, l, 16), buildTree(t, r, 16)
	const k = 300

	baseline, err := AMKDJ(left, right, k, Options{})
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New(1 << 14)
	got, err := AMKDJ(left, right, k, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(baseline) {
		t.Fatalf("%d results, want %d", len(got), len(baseline))
	}
	for i := range got {
		if got[i] != baseline[i] {
			t.Fatalf("result %d = %+v, want %+v (tracing perturbed the join)", i, got[i], baseline[i])
		}
	}
	if n := tr.CountKind(trace.KindExpansion); n == 0 {
		t.Error("trace has no expansion events")
	}
	if n := tr.CountKind(trace.KindStageStart); n == 0 {
		t.Error("trace has no stage_start event")
	}
	// Seq numbers must be strictly increasing (gapless emission order).
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("event %d out of sequence: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestTraceDeterminismIDJ repeats the determinism check for the staged
// incremental join, whose stage transitions happen mid-iteration.
func TestTraceDeterminismIDJ(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 400, w, 10)
	r := datagen.Uniform(rng.Int63(), 300, w, 10)
	left, right := buildTree(t, l, 16), buildTree(t, r, 16)
	const pulls = 600

	pull := func(opts Options) ([]Result, error) {
		it, err := AMIDJ(left, right, opts)
		if err != nil {
			return nil, err
		}
		var out []Result
		for i := 0; i < pulls; i++ {
			res, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, res)
		}
		return out, it.Err()
	}

	baseline, err := pull(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1 << 14)
	got, err := pull(Options{Trace: tr, BatchK: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(baseline) {
		t.Fatalf("traced AM-IDJ produced %d results, want %d", len(got), len(baseline))
	}
	for i := range got {
		if got[i].Dist != baseline[i].Dist {
			t.Fatalf("traced AM-IDJ result %d dist %g, want %g", i, got[i].Dist, baseline[i].Dist)
		}
	}
	if tr.CountKind(trace.KindExpansion) == 0 {
		t.Error("AM-IDJ trace has no expansion events")
	}
	if tr.CountKind(trace.KindStageStart) == 0 {
		t.Error("AM-IDJ trace has no stage_start event")
	}
}

// TestTraceFaultEmitsErrorEvent verifies that a query dying on an
// injected storage fault leaves a terminal error event in its trace, so
// a trace file always explains why a run ended.
func TestTraceFaultEmitsErrorEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 300, w, 10)
	r := datagen.Uniform(rng.Int63(), 300, w, 10)
	left := buildTree(t, l, 16)
	fault := storage.NewFaultStore(storage.NewMemStore(4096), -1)
	right := buildTreeOnStore(t, r, fault)
	fault.Arm(3) // a few reads succeed, then every access fails

	tr := trace.New(1 << 12)
	_, err := AMKDJ(left, right, 200, Options{Trace: tr})
	if err == nil {
		t.Fatal("fault not surfaced")
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
	if n := tr.CountKind(trace.KindError); n == 0 {
		t.Fatalf("trace has no error event after a faulted run (kinds: %v)", kindHistogram(tr))
	}
	evs := tr.Events()
	last := evs[len(evs)-1]
	if last.Kind != trace.KindError {
		t.Errorf("last trace event is %q, want error", last.Kind)
	}
	if !strings.Contains(last.Err, "injected") {
		t.Errorf("error event text %q does not mention the injected fault", last.Err)
	}
}

func kindHistogram(tr *trace.Tracer) map[trace.Kind]int {
	m := map[trace.Kind]int{}
	for _, ev := range tr.Events() {
		m[ev.Kind]++
	}
	return m
}

// TestTraceOffNoAllocs pins the zero-cost contract: with no tracer,
// registry, or stats collector installed, the emission and telemetry
// helpers must not allocate (they are on the per-expansion hot path).
func TestTraceOffNoAllocs(t *testing.T) {
	c := &execContext{algo: "AM-KDJ", stage: "aggressive"} // tr, mc, rq all nil
	p := hybridq.Pair{Left: 3, Right: 4, Dist: 1.25}
	var nilTr *trace.Tracer
	allocs := testing.AllocsPerRun(200, func() {
		c.expanded(&p, 2.5, 7)
		c.traceEDmax(4, 2)
		c.traceStage(trace.KindStageStart, "aggressive", 2.5, 0)
		_ = c.traceError(nil)
		nilTr.Emit(trace.Event{Kind: trace.KindExpansion})
		// Registry-off query accounting: BeginNamed on a nil registry
		// and estimate-mode recording on a nil collector are free.
		c.beginQuery(100)
		c.recordEstimate(1.5, 1.25, "arithmetic")
	})
	if allocs != 0 {
		t.Fatalf("disabled-telemetry helpers allocate %v times per run, want 0", allocs)
	}
}

// BenchmarkAMKDJTraceOff measures the default (untraced) hot path so
// regressions from the observability instrumentation show up in CI
// benchmark diffs.
func BenchmarkAMKDJTraceOff(b *testing.B) {
	rng := rand.New(rand.NewSource(503))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 2000, w, 10)
	r := datagen.Uniform(rng.Int63(), 1500, w, 10)
	left, right := buildTree(b, l, 16), buildTree(b, r, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AMKDJ(left, right, 500, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMKDJTraceOn is the traced counterpart, for eyeballing the
// tracer's overhead against BenchmarkAMKDJTraceOff.
func BenchmarkAMKDJTraceOn(b *testing.B) {
	rng := rand.New(rand.NewSource(503))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 2000, w, 10)
	r := datagen.Uniform(rng.Int63(), 1500, w, 10)
	left, right := buildTree(b, l, 16), buildTree(b, r, 16)
	tr := trace.New(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if _, err := AMKDJ(left, right, 500, Options{Trace: tr}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWithinJoinMaxDistValidation covers the NaN rejection and the +Inf
// "no limit" semantics.
func TestWithinJoinMaxDistValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	w := geom.NewRect(0, 0, 100, 100)
	l := datagen.Uniform(rng.Int63(), 30, w, 5)
	r := datagen.Uniform(rng.Int63(), 20, w, 5)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)

	if err := WithinJoin(left, right, math.NaN(), Options{}, func(Result) bool { return true }); err == nil {
		t.Fatal("NaN maxDist must be rejected")
	}

	var n int
	if err := WithinJoin(left, right, math.Inf(1), Options{}, func(Result) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if want := len(l) * len(r); n != want {
		t.Fatalf("+Inf maxDist produced %d pairs, want the full cross product %d", n, want)
	}

	n = 0
	if err := WithinJoin(left, right, -1, Options{}, func(Result) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("negative maxDist produced %d pairs, want 0", n)
	}
}

// TestSJSortDmaxValidation: SJ-SORT's first phase is the within
// descent, so its cutoff follows WithinJoin's rule. A NaN dmax is an
// error, not a descent that prunes nothing; +Inf means no bound and
// gives the ranked join's answer.
func TestSJSortDmaxValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	w := geom.NewRect(0, 0, 100, 100)
	left := buildTree(t, datagen.Uniform(rng.Int63(), 30, w, 5), 8)
	right := buildTree(t, datagen.Uniform(rng.Int63(), 20, w, 5), 8)

	if _, err := SJSort(left, right, 10, math.NaN(), Options{}); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("NaN dmax: err = %v, want a NaN error", err)
	}
	got, err := SJSort(left, right, 10, math.Inf(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AMKDJ(left, right, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("+Inf dmax: got %v, want %v", got, want)
	}
}
