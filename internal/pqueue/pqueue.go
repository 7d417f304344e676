// Package pqueue implements the priority queues used by the distance
// join algorithms: a generic binary heap; the bounded "distance queue"
// of paper §2.1, which keeps the k smallest object-pair distances
// offered so far in value buckets and exposes their maximum as the
// pruning cutoff qDmax; and KthTracker, the k-th smallest value under
// deletions, for the feeds that retire bounds.
package pqueue

import (
	"math"
	"sync"
)

// Heap is a binary heap ordered by the less function supplied at
// construction (a min-heap when less is "*a < *b").
//
// The comparator takes pointers so that ordering a large element (the
// external sort's merge heads, 104-byte pairs in SJ-SORT) copies
// nothing per comparison, and the
// sifts move elements into a travelling hole instead of swapping: one
// copy per level plus one in and one out. The element being placed
// rides in the heap's own moving field, not in a local, because a
// local whose address is passed to less would be heap-allocated on
// every sift.
type Heap[T any] struct {
	items  []T
	less   func(a, b *T) bool
	moving T // the element a sift is placing; stale between operations
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b *T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Empty reports whether the heap has no elements.
func (h *Heap[T]) Empty() bool { return len(h.items) == 0 }

// Push adds v to the heap.
func (h *Heap[T]) Push(v T) {
	h.moving = v
	h.PushFrom(&h.moving)
}

// PushFrom adds a copy of *v to the heap, reading it in place: an
// element that lands at the bottom (the common case for a join's child
// pairs, which order after their parents) is copied once, into the
// slice. The heap does not keep v, and v must not point into the heap's
// own items. Because v is handed to the comparator, a caller's local
// passed here is heap-allocated; pass the address of storage that
// already lives on the heap.
func (h *Heap[T]) PushFrom(v *T) {
	h.items = append(h.items, *v)
	h.siftUp(len(h.items)-1, v)
}

// Peek returns the top element without removing it. It panics on an
// empty heap, mirroring slice indexing semantics.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Pop removes and returns the top element. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.moving = h.items[last]
	var zero T
	h.items[last] = zero // release references for GC
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// ReplaceTop pops the top and pushes v in one O(log n) operation.
func (h *Heap[T]) ReplaceTop(v T) T {
	top := h.items[0]
	h.moving = v
	h.siftDown(0)
	return top
}

// Clear removes all elements, retaining capacity.
func (h *Heap[T]) Clear() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
	h.moving = zero
}

// Items exposes the raw heap-ordered backing slice (top at index 0).
// Callers must not reorder it; it is intended for draining.
func (h *Heap[T]) Items() []T { return h.items }

// siftUp places *v, which already sits at index i, treating i as a
// hole: ancestors that order after it move down one level each, and it
// lands where the swap-based sift would have left it.
func (h *Heap[T]) siftUp(i int, v *T) {
	items, start := h.items, i
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, &items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	if i != start {
		items[i] = *v
	}
}

// siftDown places h.moving, treating index i as a hole: the smaller
// child moves up while it orders before the element being placed.
func (h *Heap[T]) siftDown(i int) {
	items, v := h.items, &h.moving
	n := len(items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h.less(&items[right], &items[child]) {
			child = right
		}
		if !h.less(&items[child], v) {
			break
		}
		items[i] = items[child]
		i = child
	}
	items[i] = *v
}

// DistanceQueue is the bounded distance queue of paper §2.1: it retains
// the k smallest distances offered so far. While fewer than k distances
// are held the cutoff qDmax is +Inf; afterwards it is the k-th smallest
// distance, i.e. the largest one held.
//
// Every pair a join accepts is offered here, and nearly every offer is
// kept (a sweep only delivers pairs within the cutoff), so the queue
// avoids a sift through a heap of k per offer. The held distances sit
// in value buckets: a distance's bucket is
// floor((d − base)·scale), clamped to the bucket range, which is
// monotone in d, so every distance of a bucket is at most every
// distance of the buckets above it. Only the top non-empty bucket is
// ordered, as a small max-heap whose root is the cutoff; the buckets
// below are unordered lists. A kept offer below the top bucket is linked
// into its list and the root is popped; one in the top bucket replaces
// the root. When the top heap empties, the next non-empty bucket down is
// heapified in its place. Buckets are laid out over the range of the
// held distances when the k-th offer arrives (the offers before it only
// append) and again when the cutoff has fallen into the lower half of
// the range, at most once per k kept offers: a layout is O(k) and
// spreads about bucketSpan distances per bucket, so a kept offer costs
// O(1) amortised while the distances stay spread. (On a stream whose
// distances pile into one bucket, the top heap is that pile and an
// offer costs a sift through it, O(log k), as in a binary heap.)
//
// Any exact maximum gives the binary heap's Insert results and Cutoff
// bits on offers that hold no NaN and no −0, which are all a join makes
// (distances are +0, positive or +Inf). The queue rejects NaN, which is
// never held, and holds −0 as +0, so equal distances are equal bits and
// which copy is on top cannot show.
//
// The arrays are pooled: the first Insert takes a distSlab, and Release
// gives it back. Distances, list links and the top heap each take k
// slots (22 bytes per k with the bucket heads), allocated as the offers
// arrive, not at NewDistanceQueue.
type DistanceQueue struct {
	cutoff float64 // qDmax: the top heap's root once full, +Inf before
	k      int
	full   bool // k distances held: the buckets are laid out
	// A distance d is in bucket clamp(floor((d−base)·scale)); scale is
	// finite and positive and base finite, so no distance maps to NaN.
	base, scale float64
	// below is topB as a float64, or −Inf when topB is 0: an offer whose
	// (d−base)·scale is below it belongs to a bucket under topB.
	below float64
	topB  int       // the bucket top holds
	kept  int       // offers kept since the last layout
	free  int32     // first free node, −1 when none is
	top   []float64 // max-heap of bucket topB
	vals  []float64 // node distances; while filling, the distances held
	next  []int32   // node links: each bucket's list, and the free list
	head  []int32   // first node of each bucket, −1 when empty
	slab  *distSlab // the pooled arrays; nil until the first Insert
}

// bucketSpan is how many distances a bucket holds, on average, right
// after a layout: the top heap's size, and so its sift depth. On
// distances recorded from k-joins on the benchmark data, 2 was faster
// per offer than 4 or 8 at k=100, 1000 and 10000.
const bucketSpan = 2

// distSlab is the arrays of a released distance queue.
type distSlab struct {
	vals, top  []float64
	next, head []int32
}

// distSlabs holds the arrays released distance queues gave back, each
// as long as the largest k it has served.
var distSlabs = sync.Pool{New: func() any { return new(distSlab) }}

// NewDistanceQueue returns a distance queue bounded to k distances.
// k must be positive.
func NewDistanceQueue(k int) *DistanceQueue {
	if k <= 0 {
		panic("pqueue: DistanceQueue requires k > 0")
	}
	return &DistanceQueue{k: k, cutoff: math.Inf(1)}
}

// K returns the bound.
func (q *DistanceQueue) K() int { return q.k }

// Len returns the number of retained distances.
func (q *DistanceQueue) Len() int {
	if q.full {
		return q.k
	}
	return len(q.vals)
}

// Insert offers distance d. It returns true if d was retained (i.e. it
// is among the k smallest seen so far). A NaN is never retained.
func (q *DistanceQueue) Insert(d float64) bool {
	if !q.full {
		return q.fill(d)
	}
	if !(d < q.cutoff) {
		return false
	}
	d += 0 // −0 + 0 is +0; every other d is unchanged
	q.kept++
	if x := (d - q.base) * q.scale; x < q.below {
		b := 0
		if x > 0 {
			b = int(x)
		}
		i := q.free
		q.free = q.next[i]
		q.vals[i] = d
		q.next[i] = q.head[b]
		q.head[b] = i
		top := q.top
		n := len(top) - 1
		q.top = top[:n]
		if n > 0 {
			sift(top[:n], 0, top[n])
		} else {
			q.descend()
		}
	} else {
		sift(q.top, 0, d)
	}
	q.cutoff = q.top[0]
	return true
}

// Cutoff returns qDmax: +Inf until k distances are held, then the
// current k-th smallest distance.
func (q *DistanceQueue) Cutoff() float64 { return q.cutoff }

// fill holds one of the first k offers, unordered, and lays the buckets
// out at the k-th.
func (q *DistanceQueue) fill(d float64) bool {
	if d != d {
		return false
	}
	if q.slab == nil {
		s := distSlabs.Get().(*distSlab)
		q.slab, q.vals, q.top, q.next, q.head = s, s.vals[:0], s.top[:0], s.next, s.head
	}
	q.vals = append(q.vals, d+0)
	if len(q.vals) == q.k {
		q.full = true
		q.layout()
		q.cutoff = q.top[0]
	}
	return true
}

// layout spreads the k distances over the buckets, by the range of the
// finite ones, and heapifies the top non-empty bucket. Every distance
// must be in vals: none in top.
func (q *DistanceQueue) layout() {
	k := q.k
	if k > math.MaxInt32 {
		panic("pqueue: DistanceQueue holds at most 2³¹−1 distances")
	}
	nb := (k + bucketSpan - 1) / bucketSpan
	if cap(q.next) < k {
		q.next = make([]int32, k)
	}
	if cap(q.top) < k {
		q.top = make([]float64, 0, k)
	}
	if cap(q.head) < nb {
		q.head = make([]int32, nb)
	}
	vals, next, head := q.vals[:k], q.next[:k], q.head[:nb]
	q.next, q.head = next, head

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo && v > math.Inf(-1) {
			lo = v
		}
		if v > hi && v < math.Inf(1) {
			hi = v
		}
	}
	q.base, q.scale = 0, 1
	if lo <= hi {
		q.base = lo
		if s := float64(nb) / (hi - lo); s > 0 && s < math.Inf(1) {
			q.scale = s
		}
	}
	for i := range head {
		head[i] = -1
	}
	last := float64(nb - 1)
	for i, v := range vals {
		b := 0
		if x := (v - q.base) * q.scale; x >= last {
			b = nb - 1
		} else if x > 0 {
			b = int(x)
		}
		next[i] = head[b]
		head[b] = int32(i)
	}
	q.free, q.kept = -1, 0
	b := nb - 1
	for head[b] < 0 {
		b--
	}
	q.materialize(b)
}

// descend refills the emptied top heap from the highest non-empty
// bucket below it, or lays the buckets out again when that bucket is in
// the lower half and k offers have been kept since the last layout.
func (q *DistanceQueue) descend() {
	b := q.topB - 1
	for q.head[b] < 0 {
		b--
	}
	if b < len(q.head)/2 && q.kept >= q.k {
		q.layout()
		return
	}
	q.materialize(b)
}

// materialize moves bucket b's list into the empty top heap, freeing its
// nodes, and heapifies it.
func (q *DistanceQueue) materialize(b int) {
	top := q.top[:0]
	for i := q.head[b]; i >= 0; {
		top = append(top, q.vals[i])
		n := q.next[i]
		q.next[i] = q.free
		q.free = i
		i = n
	}
	q.head[b] = -1
	for i := len(top)/2 - 1; i >= 0; i-- {
		sift(top, i, top[i])
	}
	q.top, q.topB = top, b
	q.below = float64(b)
	if b == 0 {
		q.below = math.Inf(-1)
	}
}

// sift places d in the max-heap h at the hole i: the larger child moves
// up while it is larger than d. Which child is larger is a coin toss on
// a join's offers, so the sift adds the comparison's outcome to the
// child index (b2i) instead of branching on it.
func sift(h []float64, i int, d float64) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n {
			child += b2i(h[right] > h[child])
		}
		if !(h[child] > d) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = d
}

// Release empties the queue and gives its arrays back to distSlabs: a
// query calls it after its last Cutoff. It is idempotent, and a
// released queue may be inserted into again; it takes fresh arrays.
func (q *DistanceQueue) Release() {
	if q.slab == nil {
		return
	}
	s := q.slab
	s.vals, s.top, s.next, s.head = q.vals[:0], q.top[:0], q.next, q.head
	distSlabs.Put(s)
	*q = DistanceQueue{k: q.k, cutoff: math.Inf(1)}
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set
// (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
