package join

import "distjoin/internal/hybridq"

// bestFirst is the loop all six ranked joins run. The paper states it
// once, as Algorithm 1 (pop the nearest pair; an object pair is a
// result, a node pair is expanded), gives Algorithms 2 and 3 as edits
// to it, and Hjaltason & Samet's baseline is the same loop with a
// different expansion; so it is written once here, and an algorithm is
// the hooks it supplies. The hooks are bound once per query, never per
// pop.
//
// The loop runs in one of two forms. next, for HS-KDJ and the
// incremental joins, pops results from the main queue one at a time.
// rank, for B-KDJ and AM-KDJ, whose results never enter the main queue
// (cutoffTracker.offer), pops only what is still to expand and ends when
// the answer is complete.
type bestFirst struct {
	c *execContext
	// ct is the qDmax bookkeeping of the k-bounded joins, and B-KDJ's and
	// AM-KDJ's answer; nil for the incremental ones, which prune by stage
	// cutoff alone.
	ct *cutoffTracker
	// node expands a dequeued node pair: what the algorithm's sweep or
	// uni-directional expansion is, with whatever it bookkeeps. It
	// retires the pair's bound from ct if the pair has one. p is the
	// queue's popped pair, in place (hybridq.Queue.Pop): valid for the
	// whole expansion, since pushes do not write it, and copied by
	// whatever keeps it.
	node func(p *hybridq.Pair) error
	// gate, when set, is a stage cutoff between the queue and the
	// results: it reports whether p lies beyond it, having put back what
	// must wait for a later stage. A held pair ends the stage as an
	// empty queue does.
	gate func(p *hybridq.Pair) (held bool)
	// drained, when set, is asked for another stage when one ends; it
	// reports whether it opened one. Without it the loop ends with the
	// stage.
	drained func() bool
}

// next runs the loop up to the next result. The bool is false when
// there is none: the join is exhausted, its last stage is over, or the
// error says why it stopped. A tree fault and a latched queue error are
// traced here or below; a cancellation is the caller's own and is not.
func (b *bestFirst) next() (Result, bool, error) {
	c := b.c
	for {
		if err := c.cancelled(); err != nil {
			return Result{}, false, err
		}
		p, popped := c.queue.Pop()
		if !popped || (b.gate != nil && b.gate(p)) {
			// The queue also reports empty once an error is latched,
			// and putting a held pair back can latch one: no stage ends
			// on a failed queue.
			if err := c.queue.Err(); err != nil {
				return Result{}, false, c.traceError(err)
			}
			if b.drained != nil && b.drained() {
				continue
			}
			return Result{}, false, nil
		}
		if !p.IsResult() {
			if err := b.node(p); err != nil {
				return Result{}, false, err
			}
			continue
		}
		if c.needsRefinement(p) {
			// Incremental refinement: the pair goes back under its exact
			// distance, and its MBR bound gives way to the exact one.
			if b.ct != nil {
				b.ct.OnRemove(p)
				b.ct.pushCopy(c.refine(p))
			} else {
				c.pushCopy(c.refine(p))
			}
			continue
		}
		c.mc.AddResult(1)
		return pairResult(p), true, nil
	}
}

// rank runs the loop of B-KDJ and AM-KDJ up to the end of a stage. The
// main queue holds only what is still to expand: node pairs, and under a
// refiner the unrefined result pairs, lower bounds just as node pairs
// are. A popped node pair is expanded; a popped result pair is refined
// and offered to the answer. The stage ends when the queue is empty,
// the gate holds the head, or the answer is complete before it
// (cutoffTracker.complete), which ends the join. Under the main queue's
// tie rule that expands exactly the pairs next would have: a node pair
// pops before every result at its distance, so it is expanded just when
// fewer than k results order before it (NOTES.md §3a).
func (b *bestFirst) rank() error {
	c, ct := b.c, b.ct
	for {
		if err := c.cancelled(); err != nil {
			return err
		}
		p, popped := c.queue.Pop()
		if !popped || (b.gate != nil && b.gate(p)) || ct.complete(p) {
			// The queue also reports empty once an error is latched,
			// and putting a held pair back can latch one: no stage ends
			// on a failed queue.
			return c.traceError(c.queue.Err())
		}
		if p.IsResult() {
			ct.OnRemove(p)
			ct.pushCopy(c.refine(p))
			continue
		}
		if err := b.node(p); err != nil {
			return err
		}
	}
}

// collect appends results until there are k of them or the loop has no
// more to give: a k-distance join, or one stage of one.
func (b *bestFirst) collect(results []Result, k int) ([]Result, error) {
	for len(results) < k {
		r, ok, err := b.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		results = append(results, r)
	}
	return results, nil
}

// begin opens a blocking query and returns its closer, for
// `defer c.begin(algo, stage, k)(&err)` placed after the checks that
// return without running anything, so an empty-input call is never
// registered. The closer stops the collector's clock before it
// completes the registry entry, so WallTime is set when the registry
// folds the collector in.
func (c *execContext) begin(algo, stage string, k int) func(err *error) {
	c.algo, c.stage = algo, stage
	c.beginQuery(k)
	c.mc.Start()
	return func(err *error) {
		c.mc.Finish()
		c.endQuery(*err)
	}
}

// Iterator produces the results of an incremental distance join, HS-IDJ
// or AM-IDJ, one pair at a time in nondecreasing distance order.
type Iterator struct {
	bestFirst
	amidjStages // AM-IDJ's stage state; HS-IDJ leaves it zero
	produced    int
	lastDist    float64
	// done is set by Close, which every terminal path of Next goes
	// through: exhausted, failed, cancelled, or closed by the caller.
	done bool
	err  error
}

// Next returns the next nearest pair. ok is false when the join is
// exhausted or an error occurred (check Err).
func (it *Iterator) Next() (Result, bool) {
	if it.done {
		return Result{}, false
	}
	r, ok, err := it.next()
	if !ok {
		it.err = err
		it.Close()
		return Result{}, false
	}
	it.produced++
	it.lastDist = r.Dist
	if it.produced == it.stageK {
		// AM-IDJ's stage cutoff was estimated to yield stageK results;
		// the stageK-th distance just realized is its ground truth.
		// (HS-IDJ has no stage target: stageK stays zero.)
		it.c.recordEstimate(it.eDmax, r.Dist, it.modeLabel)
	}
	return r, true
}

// Close ends the iteration: it completes the query's registry entry
// (latency, counters, error outcome) and releases the main queue, so
// every later Next returns false; Err keeps what it reported. It is
// idempotent and safe on iterators without a registry; Next's terminal
// paths call it implicitly, so Close is only required when abandoning
// an iterator early.
func (it *Iterator) Close() {
	it.done = true
	it.c.endQuery(it.err)
}

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// Produced returns the number of results emitted so far.
func (it *Iterator) Produced() int { return it.produced }
