package main

import (
	"fmt"
	"path/filepath"
	"time"

	"distjoin"
	"distjoin/internal/estimate"
	"distjoin/internal/hybridq"
	"distjoin/internal/join"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/trace"
)

// The traced run of a library workload goes below the facade, because
// that is where the layer boundaries are: the same query through
// internal/join, on trees packed onto a timing page store, with a
// timing queue store, a timing estimator and the engine's own stage
// events. The deterministic counters must come out equal to the
// facade's, which shows that the traced run did the same work.

// leafSpan is one timed call into a layer during the current op.
type leafSpan struct {
	name       string
	start, end time.Time
}

// opLog receives the layer calls of the op in flight.
type opLog struct{ leaves []leafSpan }

func (l *opLog) add(name string, start time.Time) {
	l.leaves = append(l.leaves, leafSpan{name, start, time.Now()})
}

// timingStore passes every call through to the store it wraps and
// times page reads and writes.
type timingStore struct {
	storage.Store
	name   string // span name of a read or write
	log    *opLog // nil outside a traced op
	reads  int64
	writes int64
}

func (s *timingStore) ReadPage(id storage.PageID, buf []byte) error {
	t0 := time.Now()
	err := s.Store.ReadPage(id, buf)
	s.reads++
	if s.log != nil {
		s.log.add(s.name, t0)
	}
	return err
}

func (s *timingStore) WritePage(id storage.PageID, buf []byte) error {
	t0 := time.Now()
	err := s.Store.WritePage(id, buf)
	s.writes++
	if s.log != nil {
		s.log.add(s.name, t0)
	}
	return err
}

// timingEstimator times the eDmax estimator.
type timingEstimator struct {
	estimate.Estimator
	log *opLog
}

func (e timingEstimator) Initial(k int) float64 {
	t0 := time.Now()
	v := e.Estimator.Initial(k)
	e.log.add("estimate.initial", t0)
	return v
}

func (e timingEstimator) Correct(mode estimate.Mode, k, k0 int, dK0 float64) float64 {
	t0 := time.Now()
	v := e.Estimator.Correct(mode, k, k0, dK0)
	e.log.add("estimate.correct", t0)
	return v
}

// tracedEnv is a library workload set up below the facade.
type tracedEnv struct {
	w           workload
	left, right *rtree.Tree
	stores      [2]*timingStore
	model       estimate.Model
	log         opLog
	tracer      *trace.Tracer
	traceEpoch  time.Time
	mc          metrics.Collector // counters of the last op
	spills      int64             // of the last op
	reloads     int64
}

// traceCapacity bounds the engine events of one op; an op that emits
// more fails the run instead of silently losing its stage events.
const traceCapacity = 1 << 16

func packTraced(w workload, items []rtree.Item, path string) (*rtree.Tree, *timingStore, error) {
	b, err := rtree.NewBuilderForPageSize(pageSize)
	if err != nil {
		return nil, nil, err
	}
	b.BulkLoad(items)
	if !w.FileBacked {
		st := &timingStore{Store: storage.NewMemStore(pageSize), name: "storage.read"}
		t, err := b.Pack(st, w.BufferBytes)
		return t, st, err
	}
	fs, err := storage.CreateFileStore(path, pageSize)
	if err != nil {
		return nil, nil, err
	}
	if _, err := b.Pack(fs, w.BufferBytes); err != nil {
		return nil, nil, err
	}
	if err := fs.Close(); err != nil {
		return nil, nil, err
	}
	fs, err = storage.OpenFileStore(path, pageSize)
	if err != nil {
		return nil, nil, err
	}
	st := &timingStore{Store: fs, name: "storage.read"}
	t, err := rtree.Open(st, w.BufferBytes)
	return t, st, err
}

func newTracedEnv(w workload, ds dataset, dir string) (*tracedEnv, error) {
	e := &tracedEnv{w: w}
	var err error
	if e.left, e.stores[0], err = packTraced(w, ds.streets, filepath.Join(dir, "traced-streets.rtree")); err != nil {
		return nil, fmt.Errorf("pack streets: %w", err)
	}
	if e.right, e.stores[1], err = packTraced(w, ds.hydro, filepath.Join(dir, "traced-hydro.rtree")); err != nil {
		return nil, fmt.Errorf("pack hydro: %w", err)
	}
	// The model the engine would build for itself.
	e.model, err = estimate.NewModel(e.left.Bounds(), max(e.left.Size(), 1), e.right.Bounds(), max(e.right.Size(), 1))
	if err != nil {
		return nil, err
	}
	e.tracer = trace.New(traceCapacity)
	e.traceEpoch = time.Now()
	return e, nil
}

func resultsDigest(rs []join.Result) uint64 {
	d := newDigest()
	for i := range rs {
		d.u64(uint64(rs[i].LeftObj))
		d.u64(uint64(rs[i].RightObj))
		d.f64(rs[i].Dist)
	}
	return d.sum()
}

// run repeats the query for dur with every layer boundary timed, and
// hands each op's spans to rec.
func (e *tracedEnv) run(dur time.Duration, probe *hostProbe, want uint64, rec *recorder) phase {
	var (
		results []join.Result
		t0      time.Time
	)
	for _, s := range e.stores {
		s.log = &e.log
	}
	defer func() {
		for _, s := range e.stores {
			s.log = nil
		}
	}()
	return closedLoop(dur, probe, func() (err error) {
		e.log.leaves = e.log.leaves[:0]
		e.tracer.Reset()
		e.mc.Reset()
		e.spills, e.reloads = 0, 0
		// A fresh queue store per op, as the engine makes for itself.
		queueStore := &timingStore{Store: storage.NewMemStore(storage.DefaultPageSize), name: "hybridq.spill_io", log: &e.log}
		opts := join.Options{
			QueueMemBytes: e.w.QueueMemBytes,
			QueueStore:    queueStore,
			Metrics:       &e.mc,
			Estimator:     timingEstimator{e.model, &e.log},
			Trace:         e.tracer,
			QueueFaultHook: func(op hybridq.FaultOp) error {
				if op == hybridq.FaultSpill {
					e.spills++
				} else {
					e.reloads++
				}
				return nil
			},
		}
		t0 = time.Now()
		results, err = join.AMKDJ(e.left, e.right, e.w.K, opts)
		return err
	}, func() error {
		end := time.Now()
		if n := e.tracer.Dropped(); n > 0 {
			return fmt.Errorf("engine tracer dropped %d events; raise traceCapacity", n)
		}
		spans, parent := e.opSpans(rec, t0, end)
		rec.addOp(spans, parent)
		return sameDigest(resultsDigest(results), want)
	})
}

// opSpans lays the op out as spans: the op itself, under it the
// engine's stages (from its stage events, placed by their at_us), and
// under those the timed layer calls that started inside them.
func (e *tracedEnv) opSpans(rec *recorder, t0, end time.Time) ([]span, []int) {
	spans := []span{{Name: "join.amkdj", Start: rec.ns(t0), End: rec.ns(end)}}
	parent := []int{-1}
	at := func(us int64) int64 { return rec.ns(e.traceEpoch.Add(time.Duration(us) * time.Microsecond)) }
	stage := func(name string, from, to int64) {
		spans = append(spans, span{Name: name, Start: max(from, spans[0].Start), End: min(to, spans[0].End)})
		parent = append(parent, 0)
	}
	var aggStart int64 = -1
	for _, ev := range e.tracer.Events() {
		switch ev.Kind {
		case trace.KindStageStart:
			aggStart = at(ev.At)
		case trace.KindStageEnd:
			if aggStart >= 0 {
				stage("join.aggressive", aggStart, at(ev.At))
			}
		case trace.KindCompensation:
			stage("join.compensation", at(ev.At), spans[0].End)
		}
	}
	stages := len(spans)
	for _, l := range e.log.leaves {
		s := span{Name: l.name, Start: rec.ns(l.start), End: rec.ns(l.end)}
		p := 0
		for i := 1; i < stages; i++ {
			if s.Start >= spans[i].Start && s.Start < spans[i].End {
				p = i
			}
		}
		spans = append(spans, s)
		parent = append(parent, p)
	}
	return spans, parent
}

// counters lists the deterministic counters two runs of the same query
// must agree on, in a fixed order with their names.
func counters(c *metrics.Collector) ([]string, []int64) {
	return []string{
			"RealDistCalcs", "AxisDistCalcs", "MainQueueInserts", "DistQueueInserts", "CompQueueInserts",
			"NodeAccessesLogical", "NodeAccessesPhysical", "QueuePageReads", "QueuePageWrites",
			"MainQueuePeak", "ResultsProduced", "CompensationStages", "BufferHits", "BufferMisses", "BufferEvictions",
		}, []int64{
			c.RealDistCalcs, c.AxisDistCalcs, c.MainQueueInserts, c.DistQueueInserts, c.CompQueueInserts,
			c.NodeAccessesLogical, c.NodeAccessesPhysical, c.QueuePageReads, c.QueuePageWrites,
			c.MainQueuePeak, c.ResultsProduced, c.CompensationStages, c.BufferHits, c.BufferMisses, c.BufferEvictions,
		}
}

func sameCounters(untraced, traced *metrics.Collector) error {
	names, a := counters(untraced)
	_, b := counters(traced)
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("counter %s: %d in the untraced run, %d in the traced run", names[i], a[i], b[i])
		}
	}
	return nil
}

func tracedLibrary(cfg config, env *libEnv, probe *hostProbe, ds dataset, answer []distjoin.Pair, want uint64, dir string) (*report, error) {
	w := env.w
	var st distjoin.Stats
	un := env.runLibrary(cfg.measure()*2/5, probe, want, &st)

	tenv, err := newTracedEnv(w, ds, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", w.Name, err)
	}
	// Reach the state the untraced run is in (pool contents) first.
	tenv.run(cfg.warmup(), probe, want, newRecorder())
	rec := newRecorder()
	tr := tenv.run(cfg.measure()*2/5, probe, want, rec)
	if un.ops() == 0 || tr.ops() == 0 {
		return nil, fmt.Errorf("%s: no op completed correctly (first failure: %v)", w.Name, firstOf(un.firstErr, tr.firstErr))
	}
	if err := sameCounters(&st, &tenv.mc); err != nil {
		return nil, fmt.Errorf("%s: the traced run did different work: %w", w.Name, err)
	}

	pr, err := runProbes(cfg, tenv, probe)
	if err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", w.Name, err)
	}

	c := &tenv.mc
	ops := float64(tr.ops())
	engineNS := un.normWall * 1e9 / float64(un.ops()) // per untraced op, normalised
	share := func(ns float64, count int64) float64 { return ns * float64(count) / engineNS }
	queueNS := pr.queueMemNS
	if tenv.spills > 0 {
		queueNS = pr.queueSpillNS
	}
	m := map[string]float64{
		"storage.logical_reads_per_op":  float64(c.NodeAccessesLogical),
		"storage.physical_reads_per_op": float64(c.NodeAccessesPhysical),
		"storage.hit_ratio":             c.BufferHitRatio(),
		"storage.evictions_per_op":      float64(c.BufferEvictions),
		"storage.read_ms_per_op":        rec.msPerOp("storage.read") / tr.speed,
		"storage.pool_hit_ns":           pr.poolHitNS,
		"storage.pool_miss_ns":          pr.poolMissNS,
		"storage.est_share":             share(pr.poolHitNS, c.BufferHits) + share(pr.poolMissNS, c.BufferMisses),
		"rtree.decode_ns_per_node":      pr.decodeNS,
		"rtree.decode_est_share":        share(pr.decodeNS, c.NodeAccessesLogical),
		"sweep.sort_ns_per_node":        pr.sortNS,
		"sweep.sort_est_share":          share(pr.sortNS, c.NodeAccessesLogical),
		"geom.kernel_ns_per_rect":       pr.kernelNS,
		"geom.kernel_est_share":         share(pr.kernelNS, c.RealDistCalcs),
		"join.real_dist_per_op":         float64(c.RealDistCalcs),
		"join.axis_dist_per_op":         float64(c.AxisDistCalcs),
		"join.comp_stages_per_op":       float64(c.CompensationStages),
		"join.results_per_queue_insert": float64(c.ResultsProduced) / float64(max(c.MainQueueInserts, 1)),
		"join.aggressive_ms_per_op":     rec.msPerOp("join.aggressive") / tr.speed,
		"join.compensation_ms_per_op":   rec.msPerOp("join.compensation") / tr.speed,
		"hybridq.inserts_per_op":        float64(c.MainQueueInserts),
		"hybridq.page_io_per_op":        float64(c.QueuePageReads + c.QueuePageWrites),
		"hybridq.spills_per_op":         float64(tenv.spills),
		"hybridq.reloads_per_op":        float64(tenv.reloads),
		"hybridq.peak_len":              float64(c.MainQueuePeak),
		"hybridq.spill_io_ms_per_op":    rec.msPerOp("hybridq.spill_io") / tr.speed,
		"hybridq.mem_ns_per_pair":       pr.queueMemNS,
		"hybridq.spill_ns_per_pair":     pr.queueSpillNS,
		"hybridq.est_share":             share(queueNS, c.MainQueueInserts),
		"pqueue.distq_inserts_per_op":   float64(c.DistQueueInserts),
		"pqueue.kth_insert_ns":          pr.kthInsertNS,
		"estimate.calls_per_op":         rec.countPerOp("estimate.initial") + rec.countPerOp("estimate.correct"),
		"estimate.ms_per_op":            (rec.msPerOp("estimate.initial") + rec.msPerOp("estimate.correct")) / tr.speed,
		"trace.overhead_share":          percentile(tr.latMS, 50)/percentile(un.latMS, 50) - 1,
	}
	// A k-th distance of zero (the k nearest pairs all intersect) has no
	// ratio; the metric then reads 0 and the note says why.
	dk := answer[len(answer)-1].Dist
	if dk > 0 {
		m["estimate.edmax_over_dk"] = tenv.model.Initial(w.K) / dk
	}
	m["join.unattributed_share"] = 1 - m["storage.est_share"] - m["rtree.decode_est_share"] -
		m["sweep.sort_est_share"] - m["geom.kernel_est_share"] - m["hybridq.est_share"]

	path, err := rec.write(cfg)
	if err != nil {
		return nil, fmt.Errorf("write span file: %w", err)
	}
	r := &report{
		Workload: w.Name, Seed: cfg.seed, Traced: true,
		Attempted: un.attempted + tr.attempted, Failed: un.failed + tr.failed, Wrong: un.wrong + tr.wrong,
		Metrics: m,
	}
	if err := firstOf(un.firstErr, tr.firstErr); err != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("first failure: %v", err))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("untraced %d ops, traced %d ops (%.0f spans per op), counters equal, host-speed factor %.4f",
			un.ops(), tr.ops(), spansPerOp(rec, ops), tr.speed),
		fmt.Sprintf("initial eDmax %.6g, realised k-th distance %.6g", tenv.model.Initial(w.K), dk),
		fmt.Sprintf("timing store reads %d+%d, inner store reads %d+%d",
			tenv.stores[0].reads, tenv.stores[1].reads, tenv.stores[0].Store.Stats().Reads, tenv.stores[1].Store.Stats().Reads),
		fmt.Sprintf("span file %s: %d spans of %d ops kept, totals over all", path, len(rec.kept), (rec.ops+traceEvery-1)/traceEvery))
	if m["join.unattributed_share"] < 0 {
		r.Notes = append(r.Notes, "join.unattributed_share is negative: the isolated probes overestimate what the layers cost inside the engine")
	}
	return r, nil
}

func spansPerOp(rec *recorder, ops float64) float64 {
	var n int64
	for _, t := range rec.totals {
		n += t.Count
	}
	return float64(n) / ops
}
