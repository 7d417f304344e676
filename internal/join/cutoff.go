package join

import (
	"distjoin/internal/hybridq"
	"distjoin/internal/pqueue"
)

// cutoffTracker maintains qDmax — the pruning cutoff drawn from the
// distance queue — under the configured policy (§3.1 footnote 1).
//
//   - ObjectPairsOnly (the paper's choice): the k smallest object-pair
//     distances. Without a refiner, object pairs carry their final
//     distances and are permanent witnesses, so a simple bounded
//     max-heap suffices and no removal is ever needed.
//   - AllPairs (Hjaltason & Samet's scheme): additionally tracks the
//     maximum distance of every *enqueued* node pair. Soundness then
//     requires removing a node pair's bound when it is dequeued for
//     expansion — its children's bounds replace it — because a parent
//     and its children cover overlapping object pairs and must not be
//     counted as distinct witnesses.
//
// With a refiner installed, an unrefined object pair's queue distance
// is only a lower bound on its exact distance, so it may not witness
// the cutoff directly; instead its MBR maximum distance (a valid upper
// bound on the exact distance) is tracked and retired when the pair is
// refined. Both removal cases need the KthTracker.
type cutoffTracker struct {
	c      *execContext
	policy DistanceQueuePolicy
	refine bool
	objQ   *pqueue.DistanceQueue
	kth    *pqueue.KthTracker
	// cutoffFn, aggressiveFn and pushFn are Cutoff, aggressiveCutoff and
	// push bound once, so handing a sweep its live cutoff and its emit
	// allocates no method value or closure per expansion.
	cutoffFn, aggressiveFn func() float64
	pushFn                 func(p *hybridq.Pair) bool
}

// newCutoffTracker returns the query's tracker and registers it with c,
// whose endQuery gives its heap back.
func newCutoffTracker(c *execContext, k int, policy DistanceQueuePolicy) *cutoffTracker {
	t := &cutoffTracker{c: c, policy: policy, refine: c.refiner != nil}
	if t.useKth() {
		t.kth = pqueue.NewKthTracker(k)
	} else {
		t.objQ = pqueue.NewDistanceQueue(k)
	}
	t.cutoffFn, t.aggressiveFn, t.pushFn = t.Cutoff, t.aggressiveCutoff, t.push
	c.ct = t
	return t
}

// release gives the tracker's heap back to its pool. The query calls
// it once, from endQuery, after its last cutoff.
func (t *cutoffTracker) release() {
	if t.kth != nil {
		t.kth.Release()
		t.kth = nil
	} else {
		t.objQ.Release()
	}
}

// useKth reports whether deletions are needed, forcing the two-heap
// tracker.
func (t *cutoffTracker) useKth() bool {
	return t.refine || t.policy == AllPairs
}

// Cutoff returns the current qDmax.
func (t *cutoffTracker) Cutoff() float64 {
	if t.kth != nil {
		return t.kth.Cutoff()
	}
	return t.objQ.Cutoff()
}

// aggressiveCutoff is the real-distance cutoff of AM-KDJ's
// aggressive stage: qDmax, through the pruning-mutation hook (identity
// outside harness self-tests).
func (t *cutoffTracker) aggressiveCutoff() float64 {
	return mutatedCutoff(t.Cutoff())
}

// bound returns the upper-bound distance contributed by p and whether
// p is tracked at all under the policy. The counted parameter selects
// whether a fresh MaxDist computation is charged as a real distance
// computation (insertions are; retirement recomputation is
// bookkeeping).
func (t *cutoffTracker) bound(p *hybridq.Pair, counted bool) (float64, bool) {
	if p.IsResult() {
		if t.refine && !p.Refined {
			return t.pairMaxDist(p, counted), true
		}
		return p.Dist, true
	}
	if t.policy == AllPairs {
		return t.pairMaxDist(p, counted), true
	}
	return 0, false
}

func (t *cutoffTracker) pairMaxDist(p *hybridq.Pair, counted bool) float64 {
	if counted {
		return t.c.ex.maxDist(p.LeftRect, p.RightRect)
	}
	return p.LeftRect.MaxDist(p.RightRect)
}

// push enqueues *p on the main queue and, when the queue accepts it,
// records its bound: the emit of every k-join sweep.
func (t *cutoffTracker) push(p *hybridq.Pair) bool {
	if !t.c.push(p) {
		return false
	}
	t.OnPush(p)
	return true
}

// pushCopy is push for a pair the caller holds by value (see
// execContext.pushCopy).
func (t *cutoffTracker) pushCopy(p hybridq.Pair) bool {
	t.c.staged = p
	return t.push(&t.c.staged)
}

// OnPush records a pair entering the main queue.
func (t *cutoffTracker) OnPush(p *hybridq.Pair) {
	b, ok := t.bound(p, true)
	if !ok {
		return
	}
	if t.kth != nil {
		t.kth.Insert(b)
	} else {
		t.objQ.Insert(b)
	}
	t.c.mc.AddDistQueueInsert(1)
}

// OnRemove retires the bound of a pair leaving the queue without being
// a final result: a node pair dequeued for expansion, or an unrefined
// object pair dequeued for refinement (its refined bound is re-added
// by the subsequent OnPush). Refined/final result pops must NOT call
// OnRemove — they remain permanent witnesses.
func (t *cutoffTracker) OnRemove(p *hybridq.Pair) {
	if t.kth == nil {
		return // bounded queue tracks only permanent witnesses
	}
	if b, ok := t.bound(p, false); ok {
		t.kth.Delete(b)
	}
}
