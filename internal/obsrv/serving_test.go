package obsrv

import (
	"strings"
	"sync"
	"testing"
	"time"

	"distjoin/internal/niltest"
)

// TestServingMetricsNilSafe: every method of a nil *ServingMetrics
// must no-op rather than panic, matching the Registry's own nil
// discipline.
func TestServingMetricsNilSafe(t *testing.T) {
	var m *ServingMetrics
	niltest.CallAll(t, m) // every method, present and future, must not panic
	if s := m.Snapshot(); len(s.Families) != 0 || s.Counters[ServingShed] != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}

	// A nil Registry has nowhere to attach serving telemetry, but a
	// server without a registry still needs one counter set: it gets a
	// working, unexported one.
	var r *Registry
	um := r.Serving()
	um.Inc(ServingShed)
	if n := um.Snapshot().Counters[ServingShed]; n != 1 {
		t.Fatalf("unattached ServingMetrics counted %d sheds, want 1", n)
	}
	if r.Snapshot().Serving != nil {
		t.Fatal("nil Registry snapshot carries a serving block")
	}
}

// TestServingSnapshot: counters, per-family aggregates (sorted), and
// gauges all land in the snapshot; the gauge provider runs outside the
// metrics lock (a provider that itself touches the metrics must not
// deadlock).
func TestServingSnapshot(t *testing.T) {
	r := NewRegistry()
	m := r.Serving()
	if m == nil {
		t.Fatal("Registry.Serving() returned nil")
	}
	if again := r.Serving(); again != m {
		t.Fatal("Registry.Serving() not idempotent")
	}

	m.ObserveRequest("join/k", 10*time.Millisecond, time.Millisecond)
	m.ObserveRequest("join/k", 20*time.Millisecond, time.Millisecond)
	m.ObserveRequest("incremental/open", time.Millisecond, 0)
	m.Inc(ServingShed)
	m.Inc(ServingShed)
	m.Inc(ServingCursorsOpened)
	m.SetGauges(func() ServingGauges {
		// Reading the metrics from inside the provider must not
		// deadlock: Snapshot invokes it before taking the lock.
		m.Inc(ServingFailed)
		return ServingGauges{InFlight: 3, Queued: 2, OpenCursors: 1, Draining: true}
	})

	s := m.Snapshot()
	if len(s.Families) != 2 {
		t.Fatalf("%d families, want 2", len(s.Families))
	}
	if s.Families[0].Family != "incremental/open" || s.Families[1].Family != "join/k" {
		t.Fatalf("families not sorted: %q, %q", s.Families[0].Family, s.Families[1].Family)
	}
	if s.Families[1].Requests != 2 {
		t.Fatalf("join/k requests = %d, want 2", s.Families[1].Requests)
	}
	if c := s.Counters; c[ServingShed] != 2 || c[ServingCursorsOpened] != 1 || c[ServingFailed] != 1 {
		t.Fatalf("counters shed=%d cursors=%d failed=%d, want 2/1/1", c[ServingShed], c[ServingCursorsOpened], c[ServingFailed])
	}
	if s.AdmissionWait.Count != 3 {
		t.Fatalf("admission-wait count %d, want 3", s.AdmissionWait.Count)
	}
	if !s.Gauges.Draining || s.Gauges.InFlight != 3 {
		t.Fatalf("gauges %+v not from provider", s.Gauges)
	}

	// The registry snapshot embeds the serving block once attached.
	reg := r.Snapshot()
	if reg.Serving == nil {
		t.Fatal("registry snapshot has no serving block after Serving()")
	}
	if n := reg.Serving.Counters[ServingShed]; n != 2 {
		t.Fatalf("embedded serving shed = %d, want 2", n)
	}

	// And the exposition carries the serving families.
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"distjoin_serving_requests_total",
		"distjoin_serving_admission_wait_seconds_count",
		"distjoin_serving_shed_total 2",
		"distjoin_serving_draining 1",
	} {
		if !strings.Contains(b.String(), fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
}

// TestQueryIDInInspector: a query begun with a serving-minted ID
// carries it into the /queries in-flight snapshot, tying the
// inspector to response headers and request logs.
func TestQueryIDInInspector(t *testing.T) {
	r := NewRegistry()
	q := r.BeginNamed("AM-KDJ", 10, "3fa27b91-42")
	defer q.End(nil, nil)
	anon := r.Begin("B-KDJ", 5) // no serving layer: no ID
	defer anon.End(nil, nil)

	snap := r.Snapshot()
	byAlgo := map[string]string{}
	for _, qs := range snap.InFlight {
		byAlgo[qs.Algo] = qs.QueryID
	}
	if byAlgo["AM-KDJ"] != "3fa27b91-42" {
		t.Fatalf("inspector query_id %q, want 3fa27b91-42", byAlgo["AM-KDJ"])
	}
	if byAlgo["B-KDJ"] != "" {
		t.Fatalf("anonymous query leaked ID %q", byAlgo["B-KDJ"])
	}
}

// TestServingMetricsConcurrent drives every mutator alongside
// snapshots; run under -race this pins the locking discipline.
func TestServingMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	m := r.Serving()
	m.SetGauges(func() ServingGauges { return ServingGauges{InFlight: 1} })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.ObserveRequest("join/k", time.Millisecond, time.Microsecond)
				m.Inc(ServingShed)
				m.Inc(ServingCursorsOpened)
				m.Inc(ServingSlowQueries)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = m.Snapshot()
		}
	}()
	wg.Wait()
	s := m.Snapshot()
	if n := s.Counters[ServingShed]; n != 800 || s.Families[0].Requests != 800 {
		t.Fatalf("lost updates: shed=%d requests=%d, want 800/800", n, s.Families[0].Requests)
	}
}
