package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"distjoin/internal/benchrec"
	"distjoin/internal/hybridq"
	"distjoin/internal/join"
	"distjoin/internal/metrics"
)

// PerfRecord runs the continuous-benchmark suite and returns the
// schema-versioned record that `distjoin-bench -bench-json` writes and
// the CI gate diffs against the committed baseline.
//
// The suite covers every algorithm at two scaled cardinalities (the
// paper's k=1,000 and k=10,000 points), each as a cold start. The
// counters are fully deterministic for a given (scale, seed), which is
// what makes the 25% regression gate trustworthy on shared CI runners.
func PerfRecord(cfg Config) (*benchrec.Record, error) {
	cfg = cfg.withDefaults()
	w, err := Load(cfg)
	if err != nil {
		return nil, err
	}
	// Resolve the SJ-SORT distance oracle once up front so its
	// brute-force pass isn't attributed to the first SJ-SORT entry's
	// allocations.
	ks := scaleKSeries([]int{1000, 10000}, cfg.Scale)
	if _, err := w.Dmax(ks[len(ks)-1]); err != nil {
		return nil, err
	}

	rec := &benchrec.Record{
		Schema:    benchrec.SchemaVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scale:     cfg.Scale,
		Seed:      cfg.Seed,
	}

	measure := func(name string, algo Algo, k int,
		run func() (*metrics.Collector, error)) error {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		mc, err := run()
		if err != nil {
			return fmt.Errorf("bench entry %s: %w", name, err)
		}
		runtime.ReadMemStats(&after)
		rec.Entries = append(rec.Entries,
			benchrec.FromCollector(name, string(algo), k, mc,
				after.TotalAlloc-before.TotalAlloc))
		return nil
	}

	for _, k := range ks {
		k := k
		for _, algo := range []Algo{AlgoHSKDJ, AlgoBKDJ, AlgoAMKDJ, AlgoSJSort} {
			algo := algo
			name := fmt.Sprintf("%s/k=%d", algo, k)
			err := measure(name, algo, k, func() (*metrics.Collector, error) {
				return w.RunKDJ(algo, k, join.Options{})
			})
			if err != nil {
				return nil, err
			}
		}
		for _, algo := range []Algo{AlgoHSIDJ, AlgoAMIDJ} {
			algo := algo
			name := fmt.Sprintf("%s/k=%d", algo, k)
			err := measure(name, algo, k, func() (*metrics.Collector, error) {
				return w.RunIDJ(algo, k, join.Options{})
			})
			if err != nil {
				return nil, err
			}
		}
	}

	// Leaf-sweep batch-kernel series: a within-distance join at the
	// larger k's oracle distance. WithinJoin runs every expansion with
	// a fixed axis cutoff, so all leaf refinement goes through the
	// struct-of-arrays batch kernels — this is the entry that guards
	// the SoA hot path specifically. Counters are fully deterministic
	// for a given (scale, seed).
	{
		k := ks[len(ks)-1]
		dmax, err := w.Dmax(k)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("WITHIN/k=%d", k)
		err = measure(name, "WITHIN", k, func() (*metrics.Collector, error) {
			return w.RunWithin(dmax, join.Options{})
		})
		if err != nil {
			return nil, err
		}
	}

	// Pooled hybrid-queue series: a pure queue spill/reload cycle with
	// a deliberately tiny memory budget, so every push/pop round trips
	// through heap splits and segment swap-ins. This isolates the
	// pooled disk path (pair slabs, page buffers, segments) from the
	// join algorithms; the insert and page-I/O counters are
	// deterministic for the fixed driver sequence.
	if err := measureQueueCycle(measure, "QUEUE/spill-reload", func(rng *rand.Rand) float64 {
		return rng.Float64() * 1000
	}); err != nil {
		return nil, err
	}
	// The same cycle with three pairs in four tied at distance zero, the
	// shape overlapping data gives the main queue: the heap overflows
	// while holding nothing but the tie run, which may not be split
	// across memory and disk. The counters gate the spill pattern;
	// whether an unsplittable overflow stays O(1) is a wall-clock
	// question, which the repository benchmark's bigk-spill workload
	// answers.
	if err := measureQueueCycle(measure, "QUEUE/tie-run", func(rng *rand.Rand) float64 {
		if rng.Intn(4) > 0 {
			return 0
		}
		return rng.Float64() * 1000
	}); err != nil {
		return nil, err
	}

	return rec, nil
}

// queueCycleN is the number of pairs a QUEUE/* entry pushes and pops
// per cycle; queueCycleBudget forces the cycle through
// many heap splits and segment reloads so the pooled disk path — not
// the in-memory heap — dominates.
const (
	queueCycleN      = 20000
	queueCycleBudget = 64 * hybridq.RecordSize
)

// measureQueueCycle records one QUEUE/* benchmark entry: a
// deterministic push/pop cycle through a hybrid queue small enough
// that nearly every pair spills to disk and reloads. Distances come
// from dist over a fixed-seed generator, so the spill pattern — and
// with it the insert and page-I/O counters — is identical across runs.
func measureQueueCycle(measure func(name string, algo Algo, k int,
	run func() (*metrics.Collector, error)) error, name string, dist func(*rand.Rand) float64) error {
	return measure(name, "QUEUE", queueCycleN,
		func() (*metrics.Collector, error) {
			mc := &metrics.Collector{}
			mc.Start()
			defer mc.Finish()
			q := hybridq.New(hybridq.Config{
				MemBytes: queueCycleBudget,
				Metrics:  mc,
			})
			rng := rand.New(rand.NewSource(20000516))
			for i := 0; i < queueCycleN; i++ {
				q.Push(hybridq.Pair{
					Dist:     dist(rng),
					LeftObj:  true,
					RightObj: true,
					Left:     uint64(i),
					Right:    uint64(i),
				})
				mc.AddMainQueueInsert(1)
			}
			popped := 0
			for {
				if _, ok := q.Pop(); !ok {
					break
				}
				popped++
			}
			if err := q.Err(); err != nil {
				return nil, err
			}
			if popped != queueCycleN {
				return nil, fmt.Errorf("queue cycle popped %d pairs, want %d", popped, queueCycleN)
			}
			return mc, nil
		})
}
