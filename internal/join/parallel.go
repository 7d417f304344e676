package join

// Parallel distance-join execution: a worker pool expands multiple
// head pairs of the main queue concurrently, running the §3.2
// optimized plane sweep per pair inside workers, and merges the
// surviving candidate pairs back into the hybrid queue on the
// coordinating goroutine.
//
// # Execution model
//
// The coordinator repeatedly pops a batch of up to W pairs — the W
// globally smallest — from the main queue and splits it:
//
//  1. the longest prefix of final <object,object> pairs is emitted
//     immediately (they precede everything still queued, and every
//     still-unexpanded node pair can only produce children at least
//     as distant as itself, because a child MBR is contained in its
//     parent MBR and MinDist is monotone under containment);
//  2. node pairs and unrefined object pairs become expansion /
//     refinement tasks, dispatched to the worker pool;
//  3. final result pairs popped behind a pending expansion are
//     returned to the queue — the expansion's children may be closer.
//
// Workers prune against cutoffs that are frozen for the duration of
// the batch: the atomically-published qDmax mirror
// (cutoffTracker.LiveCutoff) and, for the adaptive stages, the stage
// eDmax. A frozen cutoff is never smaller than the live serial cutoff
// at the corresponding point, so parallel pruning admits a superset
// of the pairs serial pruning admits — pruning is a performance
// optimization, never a correctness requirement, hence the k nearest
// pairs are unaffected. After the batch barrier the coordinator
// merges each task's candidates in task order, re-applying the (now
// current) cutoff filter and feeding the distance queue, so the
// tracker and hybrid queue are only ever mutated single-threaded.
//
// # Determinism
//
// Results are emitted in nondecreasing distance order with the same
// deterministic tie-break as the serial path (hybridq.Pair.Less), so
// a parallel run returns exactly the same pairs in the same order as
// the serial run regardless of worker count — only the performance
// counters differ (frozen cutoffs admit more candidates). Worker
// scheduling cannot leak into results: task outputs are buffered
// per-task and merged in batch order, and every per-worker side
// effect (metrics) goes to a private shard folded in at the barrier.

import (
	"sync"
	"sync/atomic"

	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
	"distjoin/internal/obsrv"
	"distjoin/internal/trace"
)

// parallelState is the per-query worker-pool state: one expander (and
// one metrics shard) per worker, plus reusable per-task output slots.
type parallelState struct {
	workers int
	shards  *metrics.Shards
	exs     []expander
	outs    []expandOut
}

func newParallelState(c *execContext, workers int) *parallelState {
	ps := &parallelState{
		workers: workers,
		shards:  metrics.NewShards(workers),
		exs:     make([]expander, workers),
		outs:    make([]expandOut, workers),
	}
	for i := range ps.exs {
		ps.exs[i] = expander{c: c, mc: ps.shards.Shard(i)}
	}
	return ps
}

// expandOut is one task's buffered output, merged by the coordinator
// after the batch barrier.
type expandOut struct {
	// pairs holds the surviving candidate child pairs in sweep
	// emission order (or the single refined pair for refine tasks).
	pairs []hybridq.Pair
	// ci carries new compensation bookkeeping (AM aggressive and
	// fresh AM-IDJ expansions).
	ci *compInfo
	// ranges carries updated bookkeeping for AM-IDJ band
	// re-expansions.
	ranges sweepRanges
	// direct marks outputs that bypass the merge-time cutoff filter
	// (refinement results are pushed unconditionally, as in serial).
	direct bool
	// events buffers the task's trace events (empty when no tracer is
	// installed). They are emitted by the coordinator at the batch
	// barrier, in task order, so trace output is deterministic for a
	// given worker count regardless of goroutine scheduling.
	events []trace.Event
	err    error
}

// keep is the emit of every worker sweep: the sweep lends its scratch
// pair for the call only, so the task's output takes a copy.
func (o *expandOut) keep(p *hybridq.Pair) bool {
	o.pairs = append(o.pairs, *p)
	return true
}

// out resets and returns the i-th output slot for the next batch.
func (ps *parallelState) out(i int) *expandOut {
	o := &ps.outs[i]
	*o = expandOut{pairs: o.pairs[:0], events: o.events[:0]}
	return o
}

// traceExpansion buffers an expansion event for p into out when
// tracing is enabled. children is the number of buffered candidate
// pairs the expansion produced (before the merge-time cutoff filter —
// the pre-merge count is what the worker observed under the frozen
// cutoff).
func (e *expander) traceExpansion(out *expandOut, p hybridq.Pair, cutoff float64, children int64) {
	if !e.c.tr.Enabled() {
		return
	}
	out.events = append(out.events, expansionEvent(e.c.algo, e.c.stage, p, cutoff, children))
}

// ptask is one unit of worker work with its output slot.
type ptask struct {
	fn  func(e *expander)
	out *expandOut
}

// run executes tasks on up to ps.workers goroutines and folds the
// workers' metrics shards into the query collector once all workers
// are quiescent. Tasks are claimed through an atomic counter for load
// balance; outputs are indexed, so merge order is independent of
// scheduling.
func (ps *parallelState) run(c *execContext, tasks []ptask) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		tasks[0].fn(&ps.exs[0])
		ps.shards.MergeInto(c.mc)
		return
	}
	n := ps.workers
	if n > len(tasks) {
		n = len(tasks)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(e *expander) {
			defer wg.Done()
			//lint:allow ctxpoll bounded by len(tasks): each iteration claims one task and exits past the end; task bodies poll cancellation at the coordinator barriers
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i].fn(e)
			}
		}(&ps.exs[w])
	}
	wg.Wait()
	ps.shards.MergeInto(c.mc)
}

// popBatch pops up to n pairs (the n globally smallest) into dst.
func popBatch(c *execContext, dst []hybridq.Pair, n int) []hybridq.Pair {
	//lint:allow ctxpoll bounded by n (the worker count); the caller's drive loop polls cancellation every iteration
	for len(dst) < n {
		p, ok := c.queue.Pop()
		if !ok {
			break
		}
		dst = append(dst, p)
	}
	return dst
}

// Worker task bodies. Each runs entirely on one worker's expander —
// private scratch node, private metrics shard — and buffers its
// emissions into out.

// sweepChildren is the parallel form of bkdjPlaneSweep: a full
// bidirectional expansion pruned against the frozen qDmax.
func (e *expander) sweepChildren(p hybridq.Pair, cutoff func() float64, out *expandOut) {
	run, err := e.expansion(p, cutoff())
	if err != nil {
		out.err = err
		return
	}
	run.liveCutoff(cutoff)
	run.emit = out.keep
	run.run()
	e.traceExpansion(out, p, cutoff(), int64(len(out.pairs)))
}

// aggressiveChildren is the parallel form of amAggressiveSweep: axis
// pruning against the stage eDmax with per-anchor bookkeeping.
func (e *expander) aggressiveChildren(p hybridq.Pair, eDmax float64, cutoff func() float64, out *expandOut) {
	run, err := e.expansion(p, eDmax)
	if err != nil {
		out.err = err
		return
	}
	run.fixCutoff(eDmax)
	run.realCutoff = cutoff
	run.recordInto(run.newRanges())
	run.emit = out.keep
	run.run()
	out.ci = &compInfo{pair: p, plan: run.plan, ranges: run.out, examCutoff: eDmax}
	e.traceExpansion(out, p, eDmax, int64(len(out.pairs)))
}

// compensateChildren is the parallel form of amCompensateSweep:
// replay the stage-one sweep order, processing only the child pairs
// stage one never examined.
func (e *expander) compensateChildren(p hybridq.Pair, ci *compInfo, cutoff func() float64, out *expandOut) {
	run, err := e.expansionWithPlan(p, ci.plan)
	if err != nil {
		out.err = err
		return
	}
	run.prev = &ci.ranges
	run.liveCutoff(cutoff)
	run.emit = out.keep
	run.run()
	e.traceExpansion(out, p, cutoff(), int64(len(out.pairs)))
}

// refineTask refines one <object,object> pair; the refined pair is
// pushed unconditionally at merge, exactly like the serial path.
func (e *expander) refineTask(p hybridq.Pair, out *expandOut) {
	out.direct = true
	out.pairs = append(out.pairs, e.refine(p))
}

// idjFreshChildren is the parallel form of AM-IDJ's first-time
// expansion under the stage cutoff cur.
func (e *expander) idjFreshChildren(p hybridq.Pair, cur float64, record bool, out *expandOut) {
	run, err := e.expansion(p, cur)
	if err != nil {
		out.err = err
		return
	}
	run.fixCutoff(cur)
	if record {
		run.recordInto(run.newRanges())
	}
	run.emit = out.keep
	run.run()
	if record {
		out.ci = &compInfo{pair: p, plan: run.plan, ranges: run.out, examCutoff: cur}
	}
	e.traceExpansion(out, p, cur, int64(len(out.pairs)))
}

// idjBandChildren is the parallel form of AM-IDJ's band
// re-examination: recover the (prev, cur] band among previously
// examined pairs plus everything <= cur in the unexamined suffix.
func (e *expander) idjBandChildren(p hybridq.Pair, ci *compInfo, cur, prev float64, out *expandOut) {
	run, err := e.expansionWithPlan(p, ci.plan)
	if err != nil {
		out.err = err
		return
	}
	run.prev = &ci.ranges
	run.recordInto(run.newRanges())
	run.fixCutoff(cur)
	run.reexamine = func(p *hybridq.Pair) bool { return p.Dist > prev && out.keep(p) }
	run.emit = out.keep
	run.run()
	out.ranges = run.out
	e.traceExpansion(out, p, cur, int64(len(out.pairs)))
}

// emitPrefix appends to results the longest batch prefix of
// immediately-final result pairs and returns the number consumed.
func emitPrefix(c *execContext, batch []hybridq.Pair, results *[]Result, k int) int {
	i := 0
	for i < len(batch) && len(*results) < k {
		p := batch[i]
		if !p.IsResult() || c.needsRefinement(p) {
			break
		}
		*results = append(*results, pairResult(p))
		c.mc.AddResult(1)
		i++
	}
	return i
}

// mergeTask folds one task's output into the queue and the cutoff
// tracker, applying the now-current qDmax filter exactly as the
// serial sweeps do.
func mergeTask(c *execContext, ct *cutoffTracker, out *expandOut) error {
	if out.err != nil {
		return c.traceError(out.err)
	}
	if len(out.events) > 0 {
		c.tr.EmitAll(out.events)
	}
	for i := range out.pairs {
		np := &out.pairs[i]
		if !out.direct && np.Dist > ct.Cutoff() {
			continue
		}
		ct.push(np)
	}
	return nil
}

// traceBarrier emits one batch_barrier event after a batch's tasks
// have been merged, recording how many tasks the barrier synchronized.
func (c *execContext) traceBarrier(tasks int) {
	if !c.tr.Enabled() || tasks == 0 {
		return
	}
	c.tr.Emit(trace.Event{Kind: trace.KindBarrier, Algo: c.algo, Stage: c.stage, Count: int64(tasks)})
}

// bkdjParallel is the worker-pool form of B-KDJ (Algorithm 1).
func bkdjParallel(c *execContext, k int) ([]Result, error) {
	ps := c.par
	ct := newCutoffTracker(c, k, c.dqPolicy)
	live := ct.LiveCutoff
	results := make([]Result, 0, k)
	ct.pushCopy(c.rootPair())
	batch := make([]hybridq.Pair, 0, ps.workers)
	tasks := make([]ptask, 0, ps.workers)
	for len(results) < k {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		batch = popBatch(c, batch[:0], ps.workers)
		if len(batch) == 0 {
			break
		}
		i := emitPrefix(c, batch, &results, k)
		if len(results) >= k {
			break
		}
		tasks = tasks[:0]
		for _, p := range batch[i:] {
			p := p
			switch {
			case !p.IsResult():
				ct.OnRemove(&p)
				out := ps.out(len(tasks))
				tasks = append(tasks, ptask{fn: func(e *expander) { e.sweepChildren(p, live, out) }, out: out})
			case c.needsRefinement(p):
				ct.OnRemove(&p)
				out := ps.out(len(tasks))
				tasks = append(tasks, ptask{fn: func(e *expander) { e.refineTask(p, out) }, out: out})
			default:
				// A final result behind a pending expansion: its
				// emission must wait for the expansion's children, so
				// it returns to the queue. Its cutoff witness remains
				// registered — no OnRemove, no OnPush.
				c.pushCopy(p)
			}
		}
		ps.run(c, tasks)
		for t := range tasks {
			if err := mergeTask(c, ct, tasks[t].out); err != nil {
				return nil, err
			}
		}
		c.traceBarrier(len(tasks))
	}
	if err := c.queue.Err(); err != nil {
		return nil, c.traceError(err)
	}
	return results, nil
}

// amkdjParallel is the worker-pool form of AM-KDJ (Algorithms 2–3).
func amkdjParallel(c *execContext, k int, opts Options) ([]Result, error) {
	ps := c.par
	ct := newCutoffTracker(c, k, c.dqPolicy)
	live := ct.LiveCutoff
	eDmax := opts.EDmax
	estMode := obsrv.ModeOverride
	if eDmax <= 0 {
		eDmax = c.est.Initial(k) // Eq. 3 (or the configured estimator)
		estMode = obsrv.ModeInitial
	}
	est0 := eDmax
	c.traceStage(trace.KindStageStart, "aggressive", eDmax, 0)
	results := make([]Result, 0, k)
	var compList []*compInfo
	compMap := make(map[pairKey]*compInfo)
	ct.pushCopy(c.rootPair())
	batch := make([]hybridq.Pair, 0, ps.workers)
	tasks := make([]ptask, 0, ps.workers)

	// Stage one: aggressive pruning (Algorithm 2), batched.
	stageOne := true
	for stageOne && len(results) < k {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		// Line 8, applied once per batch: once qDmax drops to eDmax
		// the estimate was an overestimate and eDmax tracks qDmax.
		if q := ct.Cutoff(); q <= eDmax {
			c.traceEDmax(eDmax, q)
			eDmax = q
		}
		batch = popBatch(c, batch[:0], ps.workers)
		if len(batch) == 0 {
			break
		}
		// Stage-one termination (condition 3): pairs beyond eDmax
		// wait for the compensation stage; the batch tail returns to
		// the queue exactly like serial's single re-pushed pair.
		cut := len(batch)
		for j, p := range batch {
			if p.Dist > eDmax {
				cut = j
				break
			}
		}
		for i := cut; i < len(batch); i++ {
			c.push(&batch[i])
		}
		if cut < len(batch) {
			stageOne = false
		}
		work := batch[:cut]
		i := emitPrefix(c, work, &results, k)
		if len(results) >= k {
			break
		}
		tasks = tasks[:0]
		frozen := eDmax
		for _, p := range work[i:] {
			p := p
			switch {
			case !p.IsResult():
				ct.OnRemove(&p)
				out := ps.out(len(tasks))
				tasks = append(tasks, ptask{fn: func(e *expander) { e.aggressiveChildren(p, frozen, live, out) }, out: out})
			case c.needsRefinement(p):
				ct.OnRemove(&p)
				out := ps.out(len(tasks))
				tasks = append(tasks, ptask{fn: func(e *expander) { e.refineTask(p, out) }, out: out})
			default:
				c.pushCopy(p)
			}
		}
		ps.run(c, tasks)
		for t := range tasks {
			out := tasks[t].out
			if out.ci != nil && out.err == nil {
				compList = append(compList, out.ci)
				compMap[keyOf(out.ci.pair)] = out.ci
				c.mc.AddCompQueueInsert(1)
			}
			if err := mergeTask(c, ct, out); err != nil {
				return nil, err
			}
		}
		c.traceBarrier(len(tasks))
	}
	c.traceStage(trace.KindStageEnd, "aggressive", eDmax, int64(len(results)))

	// Stage two: compensation (Algorithm 3), needed only when the
	// aggressive stage fell short.
	if len(results) < k && c.queue.Err() == nil {
		c.mc.AddCompensationStage()
		c.traceStage(trace.KindCompensation, "compensation", eDmax, int64(len(compList)))
		// Re-seed the bookkept pairs; their bounds are NOT
		// re-registered with the cutoff tracker (see the serial
		// AMKDJ for the reasoning).
		for _, ci := range compList {
			c.push(&ci.pair)
		}
		for len(results) < k {
			if err := c.cancelled(); err != nil {
				return nil, err
			}
			batch = popBatch(c, batch[:0], ps.workers)
			if len(batch) == 0 {
				break
			}
			i := emitPrefix(c, batch, &results, k)
			if len(results) >= k {
				break
			}
			tasks = tasks[:0]
			for _, p := range batch[i:] {
				p := p
				switch {
				case !p.IsResult():
					out := ps.out(len(tasks))
					if ci := compMap[keyOf(p)]; ci != nil {
						// No OnRemove: this pair's bound was not
						// re-registered.
						delete(compMap, keyOf(p))
						ci := ci
						tasks = append(tasks, ptask{fn: func(e *expander) { e.compensateChildren(p, ci, live, out) }, out: out})
					} else {
						ct.OnRemove(&p)
						tasks = append(tasks, ptask{fn: func(e *expander) { e.sweepChildren(p, live, out) }, out: out})
					}
				case c.needsRefinement(p):
					ct.OnRemove(&p)
					out := ps.out(len(tasks))
					tasks = append(tasks, ptask{fn: func(e *expander) { e.refineTask(p, out) }, out: out})
				default:
					c.pushCopy(p)
				}
			}
			ps.run(c, tasks)
			for t := range tasks {
				if err := mergeTask(c, ct, tasks[t].out); err != nil {
					return nil, err
				}
			}
			c.traceBarrier(len(tasks))
		}
	}
	if err := c.queue.Err(); err != nil {
		return nil, c.traceError(err)
	}
	if len(results) == k {
		c.recordEstimate(est0, results[k-1].Dist, estMode)
	}
	return results, nil
}

// expandParallel is AM-IDJ's batched expansion: starting from the
// already-popped first pair, it additionally claims up to W-1 more
// node pairs from the queue head — stopping at any result pair or
// stage boundary, which Next must see — expands them on the pool, and
// merges children and compensation bookkeeping in batch order.
// Because AM-IDJ prunes only against the stage cutoff (frozen between
// stages by construction), a parallel stage examines exactly the
// pairs the serial stage examines.
func (it *AMIDJIterator) expandParallel(first hybridq.Pair) error {
	c := it.c
	ps := c.par
	cur := it.eDmax
	batch := append(make([]hybridq.Pair, 0, ps.workers), first)
	//lint:allow ctxpoll claim loop is bounded by the worker count; Next polls cancellation before each batch
	for len(batch) < ps.workers {
		p, ok := c.queue.Peek()
		if !ok || p.IsResult() {
			break
		}
		if p.Dist > cur && cur < it.maxd {
			break // stage boundary: leave for Next's advanceStage path
		}
		c.queue.Pop()
		batch = append(batch, p)
	}

	tasks := make([]ptask, 0, len(batch))
	fresh := make([]bool, len(batch))
	for j, p := range batch {
		p := p
		out := ps.out(len(tasks))
		if ci := it.compMap[keyOf(p)]; ci != nil {
			ci := ci
			prev := ci.examCutoff
			tasks = append(tasks, ptask{fn: func(e *expander) { e.idjBandChildren(p, ci, cur, prev, out) }, out: out})
		} else {
			fresh[j] = true
			record := cur < p.LeftRect.MaxDist(p.RightRect)
			tasks = append(tasks, ptask{fn: func(e *expander) { e.idjFreshChildren(p, cur, record, out) }, out: out})
		}
	}
	ps.run(c, tasks)

	for j := range tasks {
		out := tasks[j].out
		if out.err != nil {
			return c.traceError(out.err)
		}
		if len(out.events) > 0 {
			c.tr.EmitAll(out.events)
		}
		for i := range out.pairs {
			c.push(&out.pairs[i])
		}
		p := batch[j]
		key := keyOf(p)
		if fresh[j] {
			if out.ci == nil {
				continue
			}
			if existing := it.compMap[key]; existing != nil {
				// Duplicate key within one batch: keep the wider,
				// later bookkeeping.
				*existing = *out.ci
				continue
			}
			it.compMap[key] = out.ci
			it.compOrder = append(it.compOrder, key)
			c.mc.AddCompQueueInsert(1)
			continue
		}
		if cur >= p.LeftRect.MaxDist(p.RightRect) {
			// Fully covered: retire the entry (compacted at the next
			// advanceStage).
			delete(it.compMap, key)
			continue
		}
		if ci := it.compMap[key]; ci != nil {
			ci.ranges = out.ranges
			ci.examCutoff = cur
		}
	}
	c.traceBarrier(len(tasks))
	return nil
}
