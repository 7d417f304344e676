package distjoin

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestFacadeInputValidation covers the defensive checks added to the
// public entry points: nil/zero indexes, non-positive k, and NaN
// distance thresholds must produce errors, never panics.
func TestFacadeInputValidation(t *testing.T) {
	idx, err := NewIndex(randObjects(rand.New(rand.NewSource(40)), 50, 100, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := func(Pair) bool { return true }

	for name, call := range map[string]func() error{
		"KDistanceJoin/nil-left":  func() error { _, err := KDistanceJoin(nil, idx, 5, nil); return err },
		"KDistanceJoin/nil-right": func() error { _, err := KDistanceJoin(idx, nil, 5, nil); return err },
		"KDistanceJoin/zero-idx":  func() error { _, err := KDistanceJoin(idx, &Index{}, 5, nil); return err },
		"KDistanceJoin/k=0":       func() error { _, err := KDistanceJoin(idx, idx, 0, nil); return err },
		"KDistanceJoin/k<0":       func() error { _, err := KDistanceJoin(idx, idx, -3, nil); return err },
		"IncrementalJoin/nil":     func() error { _, err := IncrementalJoin(nil, idx, nil); return err },
		"WithinJoin/nil":          func() error { return WithinJoin(nil, idx, 1, nil, sink) },
		"WithinJoin/NaN":          func() error { return WithinJoin(idx, idx, math.NaN(), nil, sink) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: expected an error, got nil", name)
		}
	}

	// +Inf maxDist stays valid: it means "no distance limit".
	n := 0
	if err := WithinJoin(idx, idx, math.Inf(1), nil, func(Pair) bool { n++; return true }); err != nil {
		t.Fatalf("+Inf maxDist rejected: %v", err)
	}
	if want := idx.Len() * idx.Len(); n != want {
		t.Fatalf("+Inf WithinJoin produced %d pairs, want %d", n, want)
	}
}

// TestTraceThroughFacade runs a traced join through the public API and
// checks the tracer saw the query and the stats exporters emit
// parseable output.
func TestTraceThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	left, err := NewIndex(randObjects(rng, 300, 1000, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewIndex(randObjects(rng, 250, 1000, 10), nil)
	if err != nil {
		t.Fatal(err)
	}

	tr := NewTracer(DefaultTraceCapacity)
	stats := &Stats{}
	pairs, err := KDistanceJoin(left, right, 100, &Options{Trace: tr, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 100 {
		t.Fatalf("%d pairs", len(pairs))
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded no events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace JSON invalid")
	}

	buf.Reset()
	if err := WriteStatsJSON(&buf, stats); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("stats JSON invalid: %v", err)
	}
	if _, ok := obj["DistCalcs"]; !ok {
		t.Error("stats JSON missing DistCalcs")
	}

	buf.Reset()
	if err := WriteStatsProm(&buf, stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "distjoin_real_dist_calcs_total") {
		t.Error("prom stats missing distjoin_real_dist_calcs_total")
	}

	// Tracing never perturbs results.
	untraced, err := KDistanceJoin(left, right, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range untraced {
		if untraced[i] != pairs[i] {
			t.Fatalf("traced pair %d = %+v, untraced %+v", i, pairs[i], untraced[i])
		}
	}
}

// TestRegistryThroughFacade is the PR's acceptance test: the
// observability handler serves /metrics, /queries, /healthz, and
// /debug/pprof/ while several concurrent joins share one pair of
// indexes and one registry (run under -race in CI), and the registry
// ends up with consistent aggregates.
func TestRegistryThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	left, err := NewIndex(randObjects(rng, 1500, 10000, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewIndex(randObjects(rng, 1200, 10000, 10), nil)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	srv := httptest.NewServer(ObservabilityHandler(reg))
	defer srv.Close()

	const callers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := KDistanceJoin(left, right, 400, &Options{Registry: reg}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Hammer every endpoint while the joins run.
	joinsDone := make(chan struct{})
	go func() { wg.Wait(); close(joinsDone) }()
	paths := []string{"/metrics", "/queries", "/healthz", "/debug/pprof/"}
	for done := false; !done; {
		select {
		case <-joinsDone:
			done = true
		default:
		}
		for _, p := range paths {
			resp, err := srv.Client().Get(srv.URL + p)
			if err != nil {
				t.Fatalf("GET %s during the joins: %v", p, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("GET %s during the joins: status %d, read err %v", p, resp.StatusCode, err)
			}
			if p == "/queries" && !json.Valid(body) {
				t.Fatalf("/queries invalid JSON during the joins:\n%.200s", body)
			}
		}
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	s := reg.Snapshot()
	if len(s.InFlight) != 0 {
		t.Fatalf("in-flight after joins finished: %+v", s.InFlight)
	}
	const queries = callers * rounds
	if len(s.Algos) != 1 || s.Algos[0].Algo != "AM-KDJ" || s.Algos[0].Queries != queries {
		t.Fatalf("aggregates = %+v, want %d AM-KDJ queries", s.Algos, queries)
	}
	if s.Algos[0].Latency.Count != queries || s.Algos[0].EstimateRatio.Count != queries {
		t.Fatalf("histograms not fed: %+v", s.Algos[0])
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `distjoin_queries_total{algo="AM-KDJ"} `+strconv.Itoa(queries)) {
		t.Fatalf("/metrics missing the completed queries:\n%.400s", body)
	}
}

// TestIteratorCloseEndsRegistryEntry: an incremental join abandoned
// early stays in the live inspector until Close, which completes its
// registry entry; double Close is harmless.
func TestIteratorCloseEndsRegistryEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	left, _ := NewIndex(randObjects(rng, 200, 1000, 10), nil)
	right, _ := NewIndex(randObjects(rng, 150, 1000, 10), nil)

	reg := NewRegistry()
	it, err := IncrementalJoin(left, right, &Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatal("incremental join produced nothing")
	}
	if s := reg.Snapshot(); len(s.InFlight) != 1 {
		t.Fatalf("in-flight = %+v, want the live incremental query", s.InFlight)
	}
	it.Close()
	it.Close()
	s := reg.Snapshot()
	if len(s.InFlight) != 0 {
		t.Fatalf("Close did not end the query: %+v", s.InFlight)
	}
	if len(s.Algos) != 1 || s.Algos[0].Queries != 1 {
		t.Fatalf("aggregates after Close: %+v", s.Algos)
	}
	// Close on an iterator without a registry must also be safe.
	it2, err := IncrementalJoin(left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	it2.Close()
}

// TestDefaultRegistry pins the singleton behavior and the Reset
// hygiene contract: because the default registry is process-global,
// repeated test runs in one process (go test -count=2) must be able
// to return it to a pristine state instead of accumulating stale
// aggregates across iterations.
func TestDefaultRegistry(t *testing.T) {
	a, b := DefaultRegistry(), DefaultRegistry()
	if a == nil || a != b {
		t.Fatalf("DefaultRegistry not a singleton: %p vs %p", a, b)
	}
	// Leave the singleton exactly as this test found it, whatever other
	// tests have already folded into it.
	defer a.Reset()
	a.Reset()
	if s := a.Snapshot(); len(s.Algos) != 0 {
		t.Fatalf("aggregates survive Reset: %+v", s.Algos)
	}
}
