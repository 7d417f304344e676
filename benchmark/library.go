package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"distjoin"
)

// libEnv is a library workload after set-up: two indexes reached only
// through the public facade.
type libEnv struct {
	w           workload
	left, right *distjoin.Index
}

// setupLibrary builds the workload's indexes. File-backed workloads
// write them and read them back through a small pool, the way a
// process that did not build the index would see it.
func setupLibrary(w workload, ds dataset, dir string) (*libEnv, error) {
	cfg := &distjoin.IndexConfig{PageSize: pageSize, BufferBytes: w.BufferBytes}
	build := func(name string, objs []distjoin.Object) (*distjoin.Index, error) {
		if !w.FileBacked {
			return distjoin.NewIndex(objs, cfg)
		}
		path := filepath.Join(dir, name+".rtree")
		if _, err := distjoin.CreateIndexFile(path, objs, cfg); err != nil {
			return nil, err
		}
		return distjoin.OpenIndexFile(path, cfg)
	}
	left, err := build("streets", objects(ds.streets))
	if err != nil {
		return nil, fmt.Errorf("build streets index: %w", err)
	}
	right, err := build("hydro", objects(ds.hydro))
	if err != nil {
		return nil, fmt.Errorf("build hydro index: %w", err)
	}
	return &libEnv{w: w, left: left, right: right}, nil
}

// phase is what one timed stretch of ops produced. Times are divided
// by the host-speed factor in force when they were taken (calib.go);
// rawMS keeps the latencies as measured.
type phase struct {
	latMS      []float64 // per correct op, ascending
	rawMS      []float64 // the same, not normalised, ascending
	attempted  int
	failed     int           // errored, refused or wrong
	wrong      int           // returned an answer that is not the verified one
	wall       time.Duration // spent on ops
	normWall   float64       // seconds spent on ops, normalised
	normCPU    float64       // CPU seconds of the process under test spent on ops, normalised
	allocPerOp float64       // bytes, of the process under test
	speed      float64       // host-speed factor over the phase
	firstErr   error
}

func (p *phase) ops() int { return len(p.latMS) }

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// runLibrary repeats the workload's query for dur. st receives the
// counters of the last op.
func (e *libEnv) runLibrary(dur time.Duration, probe *hostProbe, want uint64, st *distjoin.Stats) phase {
	opts := &distjoin.Options{QueueMemBytes: e.w.QueueMemBytes, Stats: st}
	var pairs []distjoin.Pair
	return closedLoop(dur, probe, func() (err error) {
		st.Reset()
		pairs, err = distjoin.KDistanceJoin(e.left, e.right, e.w.K, opts)
		return err
	}, func() error {
		return sameDigest(pairsDigest(pairs), want)
	})
}

func sameDigest(got, want uint64) error {
	if got != want {
		return fmt.Errorf("answer digest %016x, verified digest is %016x", got, want)
	}
	return nil
}

// closedLoop is one caller issuing op after op for dur. The clock
// covers call, the part a caller waits for; verify then checks that
// call's answer with the clock stopped. Between ops, at most every
// probeEvery, the loop samples the host speed and closes an allocation
// window; neither is charged to the ops. Every op's latency, wall time
// and CPU time is divided by the host-speed factor in force when it
// ran.
//
// Bytes allocated per op is the median over those windows, not the
// mean over the phase: the hybrid queue recycles its slabs through
// sync.Pools, which a garbage collection empties, so an op that
// overlaps two collections allocates several times what its
// neighbours do, and the mean follows how many such ops a run happened
// to contain.
func closedLoop(dur time.Duration, probe *hostProbe, call, verify func() error) phase {
	var (
		p        phase
		ms       runtime.MemStats
		windows  []float64
		overhead time.Duration // wall time of probe ticks
	)
	first := probe.sampleN(probeWindow)
	runtime.ReadMemStats(&ms)
	winAlloc, winOps := ms.TotalAlloc, 0
	start := time.Now()
	for time.Since(start)-overhead < dur {
		p.attempted++
		t0, c0 := time.Now(), selfCPU()
		err := call()
		lat := time.Since(t0)
		f := probe.factor()
		if err != nil {
			p.fail(err)
		} else if err := verify(); err != nil {
			p.wrong++
			p.fail(fmt.Errorf("op %d: %w", p.attempted, err))
		} else {
			raw := float64(lat) / float64(time.Millisecond)
			p.rawMS = append(p.rawMS, raw)
			p.latMS = append(p.latMS, raw/f)
			winOps++
		}
		p.normWall += time.Since(t0).Seconds() / f
		p.normCPU += (selfCPU() - c0).Seconds() / f
		if probe.due() {
			t1 := time.Now()
			runtime.ReadMemStats(&ms)
			if winOps > 0 {
				windows = append(windows, float64(ms.TotalAlloc-winAlloc)/float64(winOps))
			}
			probe.sample()
			runtime.ReadMemStats(&ms)
			winAlloc, winOps = ms.TotalAlloc, 0
			overhead += time.Since(t1)
		}
	}
	p.wall = time.Since(start) - overhead
	p.allocPerOp = median(windows)
	p.speed = probe.since(first)
	sort.Float64s(p.latMS)
	sort.Float64s(p.rawMS)
	return p
}
