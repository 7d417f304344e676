package join

import (
	"distjoin/internal/hybridq"
	"distjoin/internal/rtree"
)

// BKDJ runs the B-KDJ algorithm of paper §3 (Algorithm 1): k-distance
// join with bidirectional node expansion and the optimized plane sweep.
// It returns the k nearest pairs in nondecreasing distance order.
func BKDJ(left, right *rtree.Tree, k int, opts Options) (results []Result, err error) {
	c, err := newContext(left, right, opts)
	if err != nil {
		return nil, err
	}
	if k <= 0 || c.left.Size() == 0 || c.right.Size() == 0 {
		return nil, nil
	}
	c.algo, c.stage = "B-KDJ", "sweep"
	c.beginQuery(k)
	defer func() { c.endQuery(err) }()
	c.mc.Start()
	defer c.mc.Finish()

	ct := newCutoffTracker(c, k, c.dqPolicy)
	results = make([]Result, 0, k)
	ct.pushCopy(c.rootPair())
	for len(results) < k {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		p, ok := c.queue.Pop()
		if !ok {
			break
		}
		if p.IsResult() {
			if c.needsRefinement(p) {
				ct.OnRemove(&p)
				ct.pushCopy(c.refine(p))
				continue
			}
			results = append(results, pairResult(p))
			c.mc.AddResult(1)
			continue
		}
		ct.OnRemove(&p)
		if err := c.bkdjPlaneSweep(p, ct); err != nil {
			return nil, err
		}
	}
	if err := c.queue.Err(); err != nil {
		return nil, c.traceError(err)
	}
	return results, nil
}

// bkdjPlaneSweep is the PlaneSweep procedure of Algorithm 1: expand
// both sides, sweep along the chosen axis/direction, prune candidates
// whose axis gap exceeds qDmax, and enqueue candidates whose real
// distance is within qDmax, feeding the distance queue (which shrinks
// qDmax).
func (c *execContext) bkdjPlaneSweep(p hybridq.Pair, ct *cutoffTracker) error {
	run, err := c.ex.expansion(p, ct.Cutoff())
	if err != nil {
		return c.traceError(err)
	}
	run.liveCutoff(ct.cutoffFn)
	run.emit = ct.pushFn
	run.run()
	c.traceExpansion(p, ct.Cutoff(), run.children)
	return nil
}
