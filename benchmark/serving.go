package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// serveEnv is a serving workload after set-up and verification.
type serveEnv struct {
	cfg   config
	w     workload
	srv   *server
	plan  []plannedOp
	conns []*conn
	probe *hostProbe
}

// serveRun is one timed stretch of traffic: the phase numbers every
// workload reports, plus what only a serving workload has.
type serveRun struct {
	phase
	start      time.Time
	samples    []opSample
	loadgenCPU time.Duration
	serverCPU  time.Duration
	gcPause    time.Duration // of the server
	sloMisses  int
	refused    int
}

func runServing(cfg config, w workload, dir string) (*report, error) {
	var (
		probe  hostProbe
		setups []float64
		ds     dataset
		srv    *server
	)
	// Whatever happens below, no server outlives this function.
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < cfg.setups(); i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stop distjoin-server: %w", err)
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		s, err := timedSetup(&probe, func() (err error) {
			ds = generate(cfg.seed)
			srv, err = startServer(cfg.root, sub, ds)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	e := &serveEnv{cfg: cfg, w: w, srv: srv, probe: &probe}
	rep, err := e.run(ds, median(setups))
	if stopErr := srv.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stop distjoin-server: %w", stopErr)
	}
	return rep, err
}

func (e *serveEnv) run(ds dataset, setupS float64) (*report, error) {
	plan, err := planOps(ds, e.w.Ops)
	if err != nil {
		return nil, fmt.Errorf("%s: correctness phase: %w", e.w.Name, err)
	}
	if e.cfg.corruptDigest {
		for i := range plan {
			last := plan[i].pages[0]
			last[len(last)-2] ^= 1 // the digit or brace before the closing bracket
		}
	}
	e.plan = plan
	n := clients()
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n},
		Timeout:   60 * time.Second,
	}
	defer hc.CloseIdleConnections()
	for i := 0; i < n; i++ {
		e.conns = append(e.conns, newConn(e.srv.base, hc))
	}

	if _, err := e.traffic(e.cfg.warmup()); err != nil {
		return nil, err
	}
	if e.cfg.trace {
		return e.traced()
	}
	r, err := e.traffic(e.cfg.measure())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(e.srv.pid())
	if err != nil {
		return nil, err
	}
	return endToEndReport(e.cfg, e.w, r.phase, setupS, rss)
}

// traffic drives the workload's mix for dur: an open loop at the
// workload's rate, or nproc closed-loop clients.
func (e *serveEnv) traffic(dur time.Duration) (serveRun, error) {
	var r serveRun
	rv0, err := e.srv.runtimeVars()
	if err != nil {
		return r, err
	}
	cpu0, err := pidCPU(e.srv.pid())
	if err != nil {
		return r, err
	}
	self0 := selfCPU()

	// The host-speed sampler runs beside the traffic; it takes under one
	// percent of one processor. It is the only user of the probe until
	// it has stopped.
	first := e.probe.sampleN(probeWindow)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.probe.sample()
			}
		}
	}()

	var interval time.Duration // between arrivals of the open loop
	arrivals := 1 << 12        // closed loop: the schedule repeats
	if e.w.Rate > 0 {
		interval = time.Duration(float64(time.Second) / e.w.Rate)
		arrivals = max(1, int(dur/interval))
	}
	sched := schedule(e.cfg.seed, e.w.Ops, arrivals)
	do := func(worker int, s *opSample) {
		s.op = sched[s.arrival%len(sched)]
		s.reqs, s.err = e.conns[worker].do(&e.plan[s.op], nil)
	}
	r.start = time.Now()
	if e.w.Rate > 0 {
		r.samples = openLoop(realClock{}, arrivals, interval, len(e.conns), do)
	} else {
		r.samples = closedLoopClients(dur, len(e.conns), do)
	}
	end := time.Now()
	close(stop)
	<-stopped

	r.loadgenCPU = selfCPU() - self0
	cpu1, err := pidCPU(e.srv.pid())
	if err != nil {
		return r, err
	}
	rv1, err := e.srv.runtimeVars()
	if err != nil {
		return r, err
	}
	r.wall = end.Sub(r.start)
	r.speed = e.probe.since(first)
	// An open loop completes what arrives: its throughput is set by the
	// schedule, not by the host, and is left as measured.
	r.normWall = r.wall.Seconds() / r.speed
	if e.w.Rate > 0 {
		r.normWall = r.wall.Seconds()
	}
	r.normCPU = (cpu1 - cpu0).Seconds() / r.speed
	r.serverCPU = cpu1 - cpu0
	r.gcPause = time.Duration(rv1.PauseTotalNs - rv0.PauseTotalNs)
	for i := range r.samples {
		s := &r.samples[i]
		r.attempted++
		raw := float64(s.done.Sub(s.due)) / float64(time.Millisecond)
		var refused refusedError
		var wrong wrongAnswer
		switch {
		case s.err == nil:
			r.rawMS = append(r.rawMS, raw)
			r.latMS = append(r.latMS, raw/r.speed)
		case errors.As(s.err, &refused):
			r.refused++
			r.fail(s.err)
		case errors.As(s.err, &wrong):
			r.wrong++
			r.fail(fmt.Errorf("arrival %d (%s): %w", s.arrival, e.w.Ops[s.op].Name, s.err))
		default:
			r.fail(fmt.Errorf("arrival %d (%s): %w", s.arrival, e.w.Ops[s.op].Name, s.err))
		}
		if s.err != nil || raw/r.speed > float64(e.w.SLO)/float64(time.Millisecond) {
			r.sloMisses++
		}
	}
	if n := r.ops(); n > 0 {
		r.allocPerOp = float64(rv1.TotalAlloc-rv0.TotalAlloc) / float64(n)
	}
	sort.Float64s(r.latMS)
	sort.Float64s(r.rawMS)
	return r, nil
}
