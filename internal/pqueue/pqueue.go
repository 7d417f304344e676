// Package pqueue implements the binary-heap priority queues used by
// the distance join algorithms: a generic heap, and the bounded
// max-heap "distance queue" of paper §2.1 that maintains the k smallest
// object-pair distances seen so far and exposes their maximum as the
// pruning cutoff qDmax.
package pqueue

import (
	"math"
	"slices"
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

// DistanceQueue is the bounded max-heap of paper §2.1: it retains the k
// smallest distances inserted so far. While fewer than k distances are
// held the cutoff qDmax is +Inf; afterwards it is the k-th smallest
// distance, i.e. the maximum element.
//
// Every pair a join accepts is offered here, and nearly every offer is
// kept (a sweep only delivers pairs within the cutoff), so Insert is a
// full sift on the join's hot path: the heap is a flat []float64 with
// the comparison written inline, not a Heap[float64] calling a
// comparator per level. Its sifts are Heap's with less(a, b) = a > b,
// the same comparisons in the same order, so the cutoff sequence is
// bit-identical to a Heap-based queue's, NaN and ±0 included. A join's
// offers land anywhere below the cutoff, so the replacing sift usually
// runs most of the way down, and which child is larger is a coin toss
// at every level: the sift adds that comparison's outcome to the child
// index (b2i) instead of branching on it, which would mispredict half
// the time.
//
// The heap's array is pooled like the main queue's: the first Insert
// takes one from distSlabs, a heap short of k grows it by append, and
// Release gives it back.
type DistanceQueue struct {
	k     int
	items []float64  // max-heap: items[0] is the largest retained distance
	slab  *[]float64 // the pooled box items came from; nil while items is nil
}

// distSlabs holds the arrays released distance queues gave back, each
// as long as the largest k it has served.
var distSlabs = sync.Pool{New: func() any { return new([]float64) }}

// NewDistanceQueue returns a distance queue bounded to k distances.
// k must be positive.
func NewDistanceQueue(k int) *DistanceQueue {
	if k <= 0 {
		panic("pqueue: DistanceQueue requires k > 0")
	}
	return &DistanceQueue{k: k}
}

// K returns the bound.
func (q *DistanceQueue) K() int { return q.k }

// Len returns the number of retained distances.
func (q *DistanceQueue) Len() int { return len(q.items) }

// Insert offers distance d. It returns true if d was retained (i.e. it
// is among the k smallest seen so far).
func (q *DistanceQueue) Insert(d float64) bool {
	items := q.items
	if len(items) < q.k {
		// Heap.Push: d enters at the bottom hole and ancestors smaller
		// than d move down one level each.
		if len(items) == cap(items) {
			items = q.grow()
		}
		items = append(items, d)
		i := len(items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !(d > items[parent]) {
				break
			}
			items[i] = items[parent]
			i = parent
		}
		items[i] = d
		q.items = items
		return true
	}
	if !(d < items[0]) {
		return false
	}
	// Heap.ReplaceTop: d enters at the root hole and the larger child
	// moves up while it is larger than d.
	i, n := 0, len(items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n {
			child += b2i(items[right] > items[child])
		}
		if !(items[child] > d) {
			break
		}
		items[i] = items[child]
		i = child
	}
	items[i] = d
	return true
}

// Cutoff returns qDmax: +Inf until k distances are held, then the
// current k-th smallest distance.
func (q *DistanceQueue) Cutoff() float64 {
	if len(q.items) < q.k {
		return math.Inf(1)
	}
	return q.items[0]
}

// grow returns the items with room for one more distance: an empty
// queue without an array takes one from distSlabs, a full one grows the
// one it has.
func (q *DistanceQueue) grow() []float64 {
	if q.slab == nil {
		q.slab = distSlabs.Get().(*[]float64)
		q.items = (*q.slab)[:0]
	}
	q.items = slices.Grow(q.items, 1)
	return q.items
}

// Release empties the queue and gives its array back to distSlabs: a
// query calls it after its last Cutoff. It is idempotent, and a
// released queue may be inserted into again; it takes a fresh array.
func (q *DistanceQueue) Release() {
	if q.slab == nil {
		return
	}
	*q.slab = q.items[:0]
	distSlabs.Put(q.slab)
	q.slab, q.items = nil, nil
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set
// (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
