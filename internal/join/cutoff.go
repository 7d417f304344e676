package join

import (
	"distjoin/internal/hybridq"
	"distjoin/internal/pqueue"
)

// cutoffTracker maintains qDmax — the pruning cutoff drawn from the
// distance queue — under one of the two feeds of §3.1 footnote 1.
//
//   - Object pairs only (the paper's choice): the k smallest object-pair
//     distances. Without a refiner, object pairs carry their final
//     distances and are permanent witnesses, so the bounded distance
//     queue suffices and no removal is ever needed.
//   - All pairs (Hjaltason & Samet's scheme): additionally tracks the
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
// refined. Both removal cases need the KthTracker, which then gives the
// cutoff.
//
// B-KDJ and AM-KDJ keep their answer here too, out of the main queue (a
// deliberate departure from Algorithms 1 and 2, whose main queue holds
// every object pair as well): a final result — an object pair, refined
// when a refiner is installed — is offered to res, the distance queue
// carrying the pairs' keys, and kept at its slot of answer. res holds
// the k smallest results offered by (distance, left, right), the order
// in which they would have popped from the main queue, so its k-th
// distance is the paper's qDmax, and its contents, read out in that
// order, are the answer (results). HS-KDJ, the paper's baseline, keeps
// its results in the main queue and has no res.
type cutoffTracker struct {
	c        *execContext
	allPairs bool
	refine   bool
	res      *pqueue.DistanceQueue // B-KDJ's and AM-KDJ's answer; nil for HS-KDJ
	answer   []Result              // the pairs res holds, each at its slot
	kth      *pqueue.KthTracker    // the cutoff when bounds are retired; nil otherwise
	// cutoffFn and pushFn are Cutoff and push bound once, so handing a
	// sweep its live cutoff and its emit allocates no method value or
	// closure per expansion.
	cutoffFn func() float64
	pushFn   func(p *hybridq.Pair) bool
}

// newCutoffTracker returns the query's tracker and registers it with c,
// whose endQuery gives its heaps back. allPairs selects Hjaltason &
// Samet's feed; answer keeps the results in the tracker (B-KDJ, AM-KDJ)
// instead of the main queue (HS-KDJ).
func newCutoffTracker(c *execContext, k int, allPairs, answer bool) *cutoffTracker {
	t := &cutoffTracker{c: c, allPairs: allPairs, refine: c.refiner != nil}
	if answer {
		t.res = pqueue.NewDistanceQueue(k)
		t.answer = make([]Result, k)
	}
	if t.refine || t.allPairs {
		t.kth = pqueue.NewKthTracker(k)
	}
	t.cutoffFn, t.pushFn = t.Cutoff, t.push
	c.ct = t
	return t
}

// release gives the tracker's heaps back to their pools. The query
// calls it once, from endQuery, after its last cutoff and its results.
func (t *cutoffTracker) release() {
	if t.kth != nil {
		t.kth.Release()
		t.kth = nil
	}
	if t.res != nil {
		t.res.Release()
	}
}

// Cutoff returns the current qDmax.
func (t *cutoffTracker) Cutoff() float64 {
	if t.kth != nil {
		return t.kth.Cutoff()
	}
	return t.res.Cutoff()
}

// bound returns the upper-bound distance contributed by p and whether
// p is tracked at all under the feed. The counted parameter selects
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
	if t.allPairs {
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

// push is the emit of every k-join sweep: it offers a final result to
// the answer when the tracker keeps one, and otherwise enqueues *p on
// the main queue and, when the queue accepts it, records its bound.
func (t *cutoffTracker) push(p *hybridq.Pair) bool {
	if t.res != nil && p.IsResult() && (p.Refined || !t.refine) {
		return t.offer(p)
	}
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

// offer is push for a final result of B-KDJ or AM-KDJ: under SelfJoin
// an identity or mirror pair is rejected, as execContext.push rejects
// it; any other is counted as a distance-queue insertion, witnesses the
// cutoff, and is kept at its slot if it is among the k smallest so far.
func (t *cutoffTracker) offer(p *hybridq.Pair) bool {
	if t.c.mirrored(p) {
		return false
	}
	t.c.mc.AddDistQueueInsert(1)
	if t.kth != nil {
		t.kth.Insert(p.Dist)
	}
	if s, ok := t.res.Offer(p.Dist, p.Left, p.Right); ok {
		t.answer[s] = pairResult(p)
	}
	return true
}

// OnPush records a pair entering the main queue: its bound, when the
// cutoff comes from the KthTracker and the feed tracks the pair. (With
// the distance queue as the cutoff, only final results witness it, and
// they go to offer.)
func (t *cutoffTracker) OnPush(p *hybridq.Pair) {
	if t.kth == nil {
		return
	}
	if b, ok := t.bound(p, true); ok {
		t.kth.Insert(b)
		t.c.mc.AddDistQueueInsert(1)
	}
}

// OnRemove retires the bound of a pair leaving the queue without being
// a final result: a node pair dequeued for expansion, or an unrefined
// object pair dequeued for refinement (its refined bound is re-added
// when the refined pair is pushed). Refined/final results must NOT call
// OnRemove — they remain permanent witnesses.
func (t *cutoffTracker) OnRemove(p *hybridq.Pair) {
	if t.kth == nil {
		return // bounded queue tracks only permanent witnesses
	}
	if b, ok := t.bound(p, false); ok {
		t.kth.Delete(b)
	}
}

// complete reports whether the answer can no longer change once p, the
// main queue's head, is dequeued: k results are held and the last of
// them orders before p as the main queue orders pairs (hybridq.PairLess:
// by distance, a node pair before a result at equal distance, then by
// IDs). Everything p or any later pair leads to orders after p, so no
// such pair can enter the answer: the join is done.
func (t *cutoffTracker) complete(p *hybridq.Pair) bool {
	if t.res.Len() < t.res.K() {
		return false
	}
	d, l, r := t.res.Max()
	return hybridq.PairLess(&hybridq.Pair{Dist: d, Left: l, Right: r, LeftObj: true, RightObj: true}, p)
}

// within reports whether the answer already holds k results, none
// farther than e.
func (t *cutoffTracker) within(e float64) bool {
	return t.res.Len() == t.res.K() && t.res.Cutoff() <= e
}

// results returns the answer in (distance, left, right) order, the
// order the main queue would have popped it in, and counts it as
// produced: the held pairs, permuted in place into the order res reads
// their slots out in.
func (t *cutoffTracker) results() []Result {
	order := t.res.Sorted()
	a := t.answer[:len(order)]
	for i := range order {
		if order[i] < 0 {
			continue // placed by an earlier cycle
		}
		// Follow the cycle through i: position j takes the pair at
		// slot order[j].
		held, j := a[i], i
		for {
			s := int(order[j])
			order[j] = -1
			if s == i {
				a[j] = held
				break
			}
			a[j] = a[s]
			j = s
		}
	}
	t.c.mc.AddResult(int64(len(a)))
	return a
}
