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
	defer c.begin("B-KDJ", "sweep", k)(&err)

	ct := newCutoffTracker(c, k, opts.Ablation.AllPairs, true)
	loop := bestFirst{c: c, ct: ct, node: func(p *hybridq.Pair) error { return c.bkdjPlaneSweep(p, ct) }}
	ct.pushCopy(c.rootPair())
	if err := loop.rank(); err != nil {
		return nil, err
	}
	return ct.results(), nil
}

// bkdjPlaneSweep is the PlaneSweep procedure of Algorithm 1: expand
// both sides, sweep along the chosen axis/direction, prune candidates
// whose axis gap exceeds qDmax, and deliver candidates whose real
// distance is within qDmax: a node pair to the main queue, a result to
// the distance queue that holds the answer (which shrinks qDmax). The
// pair's own bound is retired first: its children's replace it.
func (c *execContext) bkdjPlaneSweep(p *hybridq.Pair, ct *cutoffTracker) error {
	ct.OnRemove(p)
	q := ct.Cutoff()
	run, err := c.ex.expansion(p, q, q)
	if err != nil {
		return c.traceError(err)
	}
	run.liveCutoff(ct.cutoffFn)
	run.emit = ct.pushFn
	run.run()
	c.expanded(p, ct.Cutoff(), run.children)
	return nil
}
