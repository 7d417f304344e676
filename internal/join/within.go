package join

import (
	"fmt"
	"math"
	"slices"

	"distjoin/internal/hybridq"
	"distjoin/internal/rtree"
)

// WithinJoin streams every object pair whose distance is at most
// maxDist to fn, in no particular order — the within-predicate spatial
// join that also forms SJ-SORT's first phase (§5), exposed as an
// operation of its own. Returning false from fn stops the join early.
//
// With a refiner installed, pairs are filtered by their exact
// distances; under SelfJoin semantics identity and mirror pairs are
// suppressed. The traversal is a synchronized depth-first descent with
// plane-sweep pruning, so no priority queue is involved.
//
// maxDist must not be NaN (an error is returned: a NaN threshold makes
// every comparison false, which would silently stream the full cross
// product). A +Inf threshold is valid and means "no distance limit" —
// every pair is produced.
func WithinJoin(left, right *rtree.Tree, maxDist float64, opts Options, fn func(Result) bool) (err error) {
	if fn == nil {
		return fmt.Errorf("join: WithinJoin requires a callback")
	}
	if math.IsNaN(maxDist) {
		return fmt.Errorf("join: WithinJoin maxDist must not be NaN")
	}
	c, err := newContext(left, right, opts)
	if err != nil {
		return err
	}
	if maxDist < 0 || c.left.Size() == 0 || c.right.Size() == 0 {
		return nil
	}
	defer c.begin("WITHIN", "descend", 0)(&err)

	return c.withinDescent(maxDist, func(rp hybridq.Pair) bool {
		c.mc.AddResult(1)
		return fn(pairResult(rp))
	})
}

// withinDescent is the within(maxDist) traversal shared by WithinJoin
// and SJ-SORT's first phase: a synchronized depth-first descent over
// node pairs with plane-sweep pruning. Every qualifying object pair —
// past the self-join filter, refined and re-checked against maxDist
// when a refiner is installed — is handed to sink; sink returning false
// stops the traversal.
func (c *execContext) withinDescent(maxDist float64, sink func(rp hybridq.Pair) bool) error {
	stop := false
	stack := []hybridq.Pair{c.rootPair()}
	// The sweep lends its scratch pair for the call only: node pairs are
	// copied onto the stack, results reach sink by value.
	emit := func(np *hybridq.Pair) bool {
		if stop {
			return false
		}
		if !np.IsResult() {
			stack = append(stack, *np)
			return true
		}
		// Self-join semantics: suppress identity pairs and keep one of
		// each mirror pair — the same filter execContext.push applies for
		// the queue-driven algorithms, which these pairs never pass
		// through. (Caught by the simtest differential oracle: the
		// self-join workload otherwise ranks <a,a> pairs at distance zero
		// ahead of every real result.)
		if c.opts.SelfJoin && np.Left >= np.Right {
			return false
		}
		rp := *np
		if c.refiner != nil {
			rp = c.refine(rp)
			if rp.Dist > maxDist {
				return false
			}
		}
		stop = !sink(rp)
		return true
	}
	for len(stack) > 0 && !stop {
		if err := c.cancelled(); err != nil {
			return err
		}
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.Dist > maxDist {
			continue
		}
		run, err := c.ex.expansion(p, maxDist)
		if err != nil {
			return c.traceError(err)
		}
		run.fixCutoff(maxDist)
		run.emit = emit
		run.run()
		c.traceExpansion(p, maxDist, run.children)
	}
	return nil
}

// AllNearest reports, for every object in the left tree, its nearest
// object in the right tree (an all-nearest-neighbors semi-join).
// Objects are visited in index order of the left tree's leaves; fn
// returning false stops early. Ties resolve to an arbitrary nearest
// object. The right tree must be non-empty.
//
// Under SelfJoin an object is not its own neighbor: its nearest other
// object is reported, and an object with no other object yields no
// pair. The once-per-unordered-pair rule does not apply to a
// per-object join: a and b may each be the other's nearest.
//
// It is AllKNearest at k = 1: one best-first NN search per left
// object, each one's node accesses recorded against the collector.
func AllNearest(left, right *rtree.Tree, opts Options, fn func(left Result) bool) error {
	if fn == nil {
		return fmt.Errorf("join: AllNearest requires a callback")
	}
	return perObject("AllNearest", "ALL-NN", left, right, 1, opts, func(ns []Result) bool { return fn(ns[0]) })
}

// AllKNearest reports, for every object in the left tree, its k
// nearest objects in the right tree in nondecreasing distance order (a
// kNN join). fn receives one batch per left object — every Result in a
// batch shares the same LeftObj — and may return false to stop early.
// Fewer than k neighbors are reported when the right tree is smaller
// than k. Under SelfJoin an object is not its own neighbor, as in
// AllNearest, and an object with no other object gets no batch.
func AllKNearest(left, right *rtree.Tree, k int, opts Options, fn func(neighbors []Result) bool) error {
	if fn == nil {
		return fmt.Errorf("join: AllKNearest requires a callback")
	}
	if k <= 0 {
		return fmt.Errorf("join: AllKNearest requires k > 0")
	}
	return perObject("AllKNearest", "ALL-KNN", left, right, k, opts, fn)
}

// perObject is the index nested loop behind AllNearest and AllKNearest:
// a k-NN search in right for every object of left, in the left tree's
// leaf order, handing fn one batch per object. name prefixes its errors;
// algo is the registry label.
func perObject(name, algo string, left, right *rtree.Tree, k int, opts Options, fn func(neighbors []Result) bool) (err error) {
	c, err := newContext(left, right, opts)
	if err != nil {
		return err
	}
	if c.left.Size() == 0 {
		return nil
	}
	if c.right.Size() == 0 {
		return fmt.Errorf("join: %s requires a non-empty right tree", name)
	}
	defer c.begin(algo, "scan", k)(&err)

	batch := make([]Result, 0, k)
	var innerErr error
	err = left.Search(left.Bounds(), c.mc, func(it rtree.Item) bool {
		ns, err := c.neighbors(right, it, k)
		if err != nil {
			innerErr = err
			return false
		}
		if len(ns) == 0 {
			return true // a self-join's only object
		}
		batch = batch[:0]
		for _, n := range ns {
			batch = append(batch, Result{
				LeftObj:   it.Obj,
				RightObj:  n.Item.Obj,
				LeftRect:  it.Rect,
				RightRect: n.Item.Rect,
				Dist:      n.Dist,
			})
		}
		c.mc.AddResult(int64(len(batch)))
		return fn(batch)
	})
	if innerErr != nil {
		return innerErr
	}
	return err
}

// neighbors returns the k objects of tree nearest to it, which under
// SelfJoin excludes it itself: the search asks for one more and drops
// it. An empty answer from a non-empty tree, before that, means the
// index is damaged.
func (c *execContext) neighbors(tree *rtree.Tree, it rtree.Item, k int) ([]rtree.Neighbor, error) {
	n := k
	if c.opts.SelfJoin {
		n++
	}
	ns, err := tree.NearestNeighbors(it.Rect, n, c.mc)
	if err != nil {
		return nil, err
	}
	if len(ns) == 0 {
		// Defensive: the caller checked Size() > 0, but a corrupt or
		// truncated index can still yield an empty search frontier. Fail
		// with a diagnosable error instead of panicking.
		return nil, fmt.Errorf("join: right tree returned no nearest neighbor for left object %d (index may be corrupt)", it.Obj)
	}
	if c.opts.SelfJoin {
		ns = slices.DeleteFunc(ns, func(n rtree.Neighbor) bool { return n.Item.Obj == it.Obj })
	}
	return ns[:min(k, len(ns))], nil
}
