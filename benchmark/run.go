package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"distjoin"
)

// runOne sets up, verifies, warms up and measures one workload, traced
// or not. Everything it writes goes under a temporary directory that
// is gone when it returns, except the span file of a traced run.
func runOne(cfg config) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir, err := os.MkdirTemp("", "distjoin-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if w.Serve {
		return runServing(cfg, w, dir)
	}
	return runLibraryWorkload(cfg, w, dir)
}

// heapBallast is dead weight on the benchmark process's heap while a
// library workload runs. Those workloads run in this process, whose
// live heap of about 30 MB is smaller than that of any program that
// would embed the library, and at that size the collector runs several
// times inside one bigk-spill op, empties the hybrid queue's sync.Pools
// under it, and the workload flips between two regimes (8 MB and 48 MB
// allocated per op, 125 ms and 150 ms) that each sustain themselves.
// The ballast spaces collections as a process with a heap of a hundred
// megabytes would see them; it is never written, so it adds nothing to
// the resident set itself.
const heapBallast = 64 << 20

// timedSetup runs one set-up and returns its duration divided by the
// host-speed factor sampled around it.
func timedSetup(probe *hostProbe, setup func() error) (float64, error) {
	first := probe.sampleN(probeWindow)
	t0 := time.Now()
	if err := setup(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	probe.sampleN(probeWindow)
	return d.Seconds() / probe.since(first), nil
}

func runLibraryWorkload(cfg config, w workload, dir string) (*report, error) {
	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)
	var (
		probe  hostProbe
		setups []float64
		ds     dataset
		env    *libEnv
	)
	for i := 0; i < cfg.setups(); i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		s, err := timedSetup(&probe, func() (err error) {
			ds = generate(cfg.seed)
			env, err = setupLibrary(w, ds, sub)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	answer, err := verifyTopK(ds, env.left, env.right, w.K, w.QueueMemBytes)
	if err != nil {
		return nil, fmt.Errorf("%s: correctness phase: %w", w.Name, err)
	}
	want := pairsDigest(answer)
	if cfg.corruptDigest {
		want ^= 1
	}

	var st distjoin.Stats
	env.runLibrary(cfg.warmup(), &probe, want, &st)
	if cfg.trace {
		return tracedLibrary(cfg, env, &probe, ds, answer, want, dir)
	}
	p := env.runLibrary(cfg.measure(), &probe, want, &st)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	return endToEndReport(cfg, w, p, median(setups), rss)
}

const mb = 1e6

// endToEndReport turns the measured phase of an untraced run into the
// end-to-end metrics.
func endToEndReport(cfg config, w workload, p phase, setupS, rssMB float64) (*report, error) {
	r := &report{
		Workload: w.Name, Seed: cfg.seed,
		Attempted: p.attempted, Failed: p.failed, Wrong: p.wrong,
	}
	if p.firstErr != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("first failure: %v", p.firstErr))
	}
	n := p.ops()
	if n == 0 {
		return nil, fmt.Errorf("%s: no op completed correctly in %v (first failure: %v)", w.Name, p.wall, p.firstErr)
	}
	ops := float64(n)
	r.Metrics = map[string]float64{
		"setup_s":         setupS,
		"latency_ms_p50":  percentile(p.latMS, 50),
		"latency_ms_p90":  percentile(p.latMS, 90),
		"ops_per_s":       ops / p.normWall,
		"cpu_ms_per_op":   p.normCPU * 1e3 / ops,
		"alloc_mb_per_op": p.allocPerOp / mb,
		"peak_rss_mb":     rssMB,
	}
	r.Notes = append(r.Notes,
		sampleNote(p.latMS),
		fmt.Sprintf("host-speed factor %.4f; as measured: latency p50 %.4f ms, p90 %.4f ms, %.4f ops/s",
			p.speed, percentile(p.rawMS, 50), percentile(p.rawMS, 90), ops/p.wall.Seconds()),
		fmt.Sprintf("fail_share %d/%d", p.failed, p.attempted))
	return r, nil
}

// sampleNote states the sample count and the highest percentile that
// has at least ten samples beyond it.
func sampleNote(latMS []float64) string {
	sp := supportedPercentile(len(latMS))
	if sp == 0 {
		return fmt.Sprintf("samples %d: too few for any percentile with ten samples beyond it", len(latMS))
	}
	return fmt.Sprintf("samples %d, highest supported percentile p%g = %.4f ms", len(latMS), sp, percentile(latMS, sp))
}
