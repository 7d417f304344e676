package join

import (
	"fmt"
	"math"

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
		return fn(pairResult(&rp))
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
			rp = c.refine(&rp)
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
		run, err := c.ex.expansion(&p, maxDist, maxDist)
		if err != nil {
			return c.traceError(err)
		}
		run.fixCutoff(maxDist)
		run.emit = emit
		run.run()
		c.traceExpansion(&p, maxDist, run.children)
	}
	return nil
}
