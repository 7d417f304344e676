package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"distjoin/internal/storage"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because the driver computes its spreads with that.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5})
	if q1 != 1.25 || q2 != 2.5 || q3 != 4.5 {
		t.Errorf("quartiles(1 2 3 5) = %v %v %v, want 1.25 2.5 4.5", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100},
		{Name: "a", Start: 10, End: 30},
		{Name: "b", Start: 20, End: 50},     // overlaps a
		{Name: "c", Start: 90, End: 120},    // sticks out of op
		{Name: "a1", Start: 12, End: 18},    // grandchild
		{Name: "far", Start: 200, End: 210}, // outside op altogether
	}
	parent := []int{-1, 0, 0, 0, 1, 0}
	self := selfTimes(spans, parent)
	// op: 100 - [10,50) - [90,100) = 50.
	for i, want := range []int64{50, 14, 30, 30, 6, 10} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want)
		}
	}

	rec := newRecorder()
	rec.addOp(spans, parent)
	rec.addOp(spans[:2], parent[:2])
	if got := rec.totals["a"]; got.Count != 2 || got.TotalNS != 40 || got.SelfNS != 14+20 {
		t.Errorf("totals of a = %+v", got)
	}
	// Only the first of traceEvery ops is kept in full, with parents
	// rewritten to span IDs.
	if len(rec.kept) != len(spans) || rec.kept[4].Parent != rec.kept[1].ID || rec.kept[0].Parent != 0 {
		t.Errorf("kept spans: %+v", rec.kept)
	}
}

func TestTimingStorePassesThrough(t *testing.T) {
	inner := storage.NewMemStore(pageSize)
	var log opLog
	ts := &timingStore{Store: inner, name: "storage.read", log: &log}
	page := make([]byte, pageSize)
	for i := 0; i < 5; i++ {
		id, err := ts.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		page[0] = byte(i + 1)
		if err := ts.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		if err := ts.ReadPage(storage.PageID(i%5), page); err != nil {
			t.Fatal(err)
		}
		if page[0] != byte(i%5+1) {
			t.Fatalf("page %d reads back %d", i%5, page[0])
		}
	}
	st := inner.Stats()
	if ts.reads != st.Reads || ts.writes != st.Writes || ts.reads != 7 || ts.writes != 5 {
		t.Errorf("wrapper counted %d reads %d writes, inner store %d reads %d writes", ts.reads, ts.writes, st.Reads, st.Writes)
	}
	if len(log.leaves) != 12 {
		t.Errorf("%d timed calls logged, want 12", len(log.leaves))
	}
	if err := ts.ReadPage(99, page); err == nil {
		t.Error("a read past the end did not fail through the wrapper")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := generate(7), generate(7), generate(8)
	if len(a.streets) != streetsN || len(a.hydro) != hydroN {
		t.Fatalf("generated %d streets and %d hydro", len(a.streets), len(a.hydro))
	}
	if a.digest() != b.digest() {
		t.Error("the same seed gave two datasets")
	}
	if a.digest() == c.digest() {
		t.Error("two seeds gave the same dataset")
	}
	for i, it := range a.streets {
		if it.Obj != int64(i) {
			t.Fatalf("street %d has ID %d", i, it.Obj)
		}
	}
	ops := workloads[3].Ops
	s1, s2, s3 := schedule(7, ops, 500), schedule(7, ops, 500), schedule(8, ops, 500)
	if string(s1) != string(s2) {
		t.Error("the same seed gave two schedules")
	}
	if string(s1) == string(s3) {
		t.Error("two seeds gave the same schedule")
	}
	count := make([]int, len(ops))
	for _, pick := range s1 {
		count[pick]++
	}
	for i, op := range ops {
		if share := float64(count[i]) / 500; math.Abs(share-op.Share) > 0.08 {
			t.Errorf("op %s drawn with share %.3f, mix says %.2f", op.Name, share, op.Share)
		}
	}
}

// fakeClock only moves when someone sleeps on it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

// A server that stalls on one request delays the ones due during the
// stall. An open loop must charge them that delay: their clocks start
// at their due times, not when a connection became free.
func TestOpenLoopChargesQueueingToLatency(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 100 * time.Millisecond
		service  = time.Millisecond
	)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	samples := openLoop(clk, 8, interval, 1, func(_ int, s *opSample) {
		d := service
		if s.arrival == 0 {
			d = stall
		}
		clk.SleepUntil(clk.Now().Add(d))
	})
	lat := func(i int) time.Duration { return samples[i].done.Sub(samples[i].due) }
	late := func(i int) time.Duration { return samples[i].sent.Sub(samples[i].due) }
	if lat(0) < stall {
		t.Errorf("the stalled arrival took %v, the stall alone is %v", lat(0), stall)
	}
	// Arrival 1 was due 10 ms in and could not be sent before the stall
	// ended: at least 90 ms of queueing, against 1 ms of service.
	if lat(1) < stall-interval || late(1) < stall-interval-service {
		t.Errorf("arrival 1: latency %v, sent %v late; the queueing behind the stall (%v) is missing", lat(1), late(1), stall-interval)
	}
	// The backlog drains one service time per arrival, so lateness
	// shrinks and is gone once the schedule has caught up.
	if late(2) >= late(1) {
		t.Errorf("lateness did not shrink: arrival 1 %v, arrival 2 %v", late(1), late(2))
	}
	for i, s := range samples {
		if want := samples[0].due.Add(time.Duration(i) * interval); !s.due.Equal(want) {
			t.Errorf("arrival %d due at %v, want %v", i, s.due, want)
		}
	}
}

func TestResponseScans(t *testing.T) {
	body := []byte(`{"query_id":"q1","cursor":"abc123","pairs":[{"left":1,"right":2,"dist":0.5}],"stats":{"elapsed_ms":12.375,"dist_calcs":9}}` + "\n")
	if v, ok := tailNumber(body, `"elapsed_ms":`); !ok || v != 12.375 {
		t.Errorf("tailNumber = %v %v", v, ok)
	}
	if _, ok := tailNumber(body, `"missing":`); ok {
		t.Error("tailNumber found a key that is not there")
	}
	if v, ok := headString(body, `"cursor":"`); !ok || v != "abc123" {
		t.Errorf("headString = %q %v", v, ok)
	}
	c := &conn{buf: body}
	if err := c.checkPairsBytes([]byte(`"pairs":[{"left":1,"right":2,"dist":0.5}]`)); err != nil {
		t.Errorf("matching pairs rejected: %v", err)
	}
	if err := c.checkPairsBytes([]byte(`"pairs":[{"left":1,"right":2,"dist":0.25}]`)); err == nil {
		t.Error("different pairs accepted")
	}
	if err := c.checkPairsBytes([]byte(`"pairs":[]`)); err == nil {
		t.Error("an empty expectation matched a non-empty answer")
	}
}

// BENCHMARK.json is generated from spec.go (-print-spec); this fails
// when one is edited without the other, and when the file leaves the
// limits its contract sets.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	gotB, _ := json.Marshal(got)
	wantB, _ := json.Marshal(want)
	if string(gotB) != string(wantB) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with: go run -C benchmark . -print-spec > BENCHMARK.json")
	}

	spec := benchmarkSpec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

func quickConfig(t *testing.T, w string, traced bool) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: w, seed: 3, seconds: 0.5, trace: traced, quick: true, root: root,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
}

// The quick mode runs every workload end to end in well under a second
// of measurement each: it proves that the harness starts, verifies,
// measures and stops, including building, spawning and stopping the
// server, and that every metric the spec names comes out as a number.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns distjoin-server")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := quickConfig(t, w.Name, traced)
			rep, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.correct() || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d wrong %d (%v)", w.Name, traced, rep.Attempted, rep.Failed, rep.Wrong, rep.Notes)
			}
			names, _ := namesAndUnits(traced)
			for _, n := range names {
				v, ok := rep.Metrics[n]
				if (!ok && !traced) || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", w.Name, traced, n, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, n, v)
				}
			}
			if !traced {
				continue
			}
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("%s: no span file: %v", w.Name, err)
			}
			// What the layer metrics were predicted to show.
			m := rep.Metrics
			switch w.Name {
			case "topk-warm":
				if m["storage.physical_reads_per_op"] != 0 {
					t.Errorf("topk-warm reads %v pages physically per op, predicted 0", m["storage.physical_reads_per_op"])
				}
			case "cold-io":
				if m["storage.physical_reads_per_op"] <= 500 {
					t.Errorf("cold-io reads %v pages physically per op, predicted > 500", m["storage.physical_reads_per_op"])
				}
			case "bigk-spill":
				if m["join.comp_stages_per_op"] != 1 || m["hybridq.spills_per_op"] < 1 {
					t.Errorf("bigk-spill: %v compensation stages, %v spills per op", m["join.comp_stages_per_op"], m["hybridq.spills_per_op"])
				}
			}
		}
	}
}

// A wrong answer must fail the run: here every verified digest (every
// expected response, for a serving workload) is corrupted.
func TestWrongDigestFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns distjoin-server")
	}
	for _, w := range []string{"topk-warm", "serve-open"} {
		cfg := quickConfig(t, w, false)
		cfg.corruptDigest = true
		rep, err := runOne(cfg)
		if err == nil && (rep.correct() || rep.Wrong == 0 || rep.Failed != rep.Attempted) {
			t.Errorf("%s: corrupted digests went unnoticed: attempted %d failed %d wrong %d", w, rep.Attempted, rep.Failed, rep.Wrong)
		}
	}
}

// The comparer flags a metric that is worse than the baseline by more
// than its bound, and refuses numbers that depend on the machine's
// speed when the two records come from different host shapes.
func TestCompareRefusesWallClockAcrossHosts(t *testing.T) {
	row := func(metric string, v float64) summary {
		return summary{Workload: "topk-warm", Metric: metric, Median: v}
	}
	host := hostShape{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0"}
	base := record{Host: host, Summary: []summary{row("latency_ms_p50", 20), row("alloc_mb_per_op", 3), row("ops_per_s", 50)}}
	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// 30 % slower, 40 % more allocation, 30 % fewer ops per second.
	now := record{Host: host, Summary: []summary{row("latency_ms_p50", 26), row("alloc_mb_per_op", 4.2), row("ops_per_s", 35)}}
	if n, err := compare(now, path); err != nil || n != 3 {
		t.Errorf("same host: %d regressions (%v), want 3", n, err)
	}
	now.Host.NumCPU = 8
	if n, err := compare(now, path); err != nil || n != 1 {
		t.Errorf("different host: %d regressions (%v), want only the allocation one", n, err)
	}
	better := record{Host: host, Summary: []summary{row("latency_ms_p50", 15), row("alloc_mb_per_op", 3.05), row("ops_per_s", 70)}}
	if n, err := compare(better, path); err != nil || n != 0 {
		t.Errorf("improvements counted as %d regressions (%v)", n, err)
	}
}
