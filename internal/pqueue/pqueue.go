// Package pqueue implements the priority queues used by the distance
// join algorithms: a generic binary heap; the bounded "distance queue"
// of paper §2.1, which keeps the k smallest result pairs offered so far
// (their keys, each in a slot the caller keeps the pair at) in value
// buckets and exposes the k-th distance as the pruning cutoff qDmax;
// and KthTracker, the k-th smallest value under
// deletions, for the feeds that retire bounds.
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

// DistanceQueue is the bounded distance queue of paper §2.1, holding
// the result pairs' keys, not only their distances: it retains the k
// smallest offers by key (distance, left ID, right ID), the order in
// which a join's main queue pops results, and exposes the k-th distance
// as the pruning cutoff qDmax. While fewer than k offers are held the
// cutoff is +Inf; afterwards it is the distance of the largest key held.
// An offer at the cutoff distance is kept when its IDs order before
// those of the largest key, which it then displaces. Insert is the
// distance-only offer, (d, 0, 0), so a tie with the cutoff is never
// kept.
//
// Each held offer owns a slot in [0, k): the caller keeps the rest of
// the pair at that index of an array of its own, and an offer that
// evicts a held one takes the evicted one's slot. Sorted reads the held
// slots out in key order once the offers are done.
//
// Nearly every offer a join makes is kept (a sweep only delivers pairs
// within the cutoff), so the queue avoids a sift through a heap of k
// per offer. The held keys sit in value buckets: a key's bucket is
// floor((d − base)·scale), clamped to the bucket range, which is
// monotone in d, so every key of a bucket orders before every key of
// the buckets above it. Only the top non-empty bucket is ordered, as a
// small max-heap of slots whose root holds the cutoff; the buckets below
// are unordered lists of slots. A kept offer takes the root's slot:
// below the top bucket it is linked into its bucket's list and the root
// is popped; in the top bucket it replaces the root. When the top heap
// empties, the next non-empty bucket down is heapified in its place.
// Buckets are laid out over the range of the held distances when the
// k-th offer arrives (the offers before it only take the next slot) and
// again when the cutoff has fallen into the lower half of the range, at
// most once per k kept offers: a layout is O(k) and spreads about
// bucketSpan keys per bucket, so a kept offer costs O(1) amortised while
// the distances stay spread. (On a stream whose distances pile into one
// bucket, the top heap is that pile and an offer costs a sift through
// it, O(log k), as in a binary heap.)
//
// The queue rejects NaN, which is never held, and holds −0 as +0, so
// equal distances are equal bits and which copy is on top cannot show.
// On distance-only offers without NaN and −0, Insert's results and the
// Cutoff bits are those of a binary max-heap of k distances.
//
// The arrays are pooled: the first offer takes a distSlab, and Release
// gives it back. A slab that serves a smaller k than this one's is
// replaced by arrays allocated once, at k; nothing grows offer by offer.
// Keys, list links and the top heap take k slots each and the bucket
// heads k/2: 34 bytes per k.
type DistanceQueue struct {
	cutoff float64 // qDmax: the root's distance once full, +Inf before
	k      int
	n      int  // slots taken: the offers held
	full   bool // k offers held: the buckets are laid out
	// A key of distance d is in bucket clamp(floor((d−base)·scale));
	// scale is finite and positive and base finite, so no distance maps
	// to NaN.
	base, scale float64
	// below is topB as a float64, or −Inf when topB is 0: an offer whose
	// (d−base)·scale is below it belongs to a bucket under topB.
	below float64
	topB  int       // the bucket top holds
	kept  int       // offers kept since the last layout
	top   []int32   // max-heap, by key, of the slots of bucket topB
	keys  []key     // each slot's key
	next  []int32   // slot links: each bucket's list
	head  []int32   // first slot of each bucket, −1 when empty
	slab  *distSlab // the pooled arrays; nil until the first offer
}

// key orders a held offer: by distance, then by the left and the right
// ID, as the main queue orders results (hybridq.PairLess).
type key struct {
	d           float64
	left, right uint64
}

// after reports whether a orders after b.
//
//lint:allow floatcmp bit-exact distance tie-break IS the determinism contract: the main queue's result order
func after(a, b *key) bool {
	if a.d != b.d {
		return a.d > b.d
	}
	if a.left != b.left {
		return a.left > b.left
	}
	return a.right > b.right
}

// bucketSpan is how many keys a bucket holds, on average, right after a
// layout: the top heap's size, and so its sift depth. On distances
// recorded from k-joins on the benchmark data, 2 was faster per offer
// than 4 or 8 at k=100, 1000 and 10000.
const bucketSpan = 2

// buckets is the number of buckets n keys are laid out over.
func buckets(n int) int { return (n + bucketSpan - 1) / bucketSpan }

// distSlab is the arrays of a released distance queue.
type distSlab struct {
	keys            []key
	top, next, head []int32
}

// distSlabs holds the arrays released distance queues gave back, each
// as long as the largest k it has served.
var distSlabs = sync.Pool{New: func() any { return new(distSlab) }}

// NewDistanceQueue returns a distance queue bounded to k offers. k must
// be positive and fit a slot.
func NewDistanceQueue(k int) *DistanceQueue {
	if k <= 0 {
		panic("pqueue: DistanceQueue requires k > 0")
	}
	if k > math.MaxInt32 {
		panic("pqueue: DistanceQueue holds at most 2³¹−1 offers")
	}
	return &DistanceQueue{k: k, cutoff: math.Inf(1)}
}

// K returns the bound.
func (q *DistanceQueue) K() int { return q.k }

// Len returns the number of retained offers.
func (q *DistanceQueue) Len() int { return q.n }

// Insert offers distance d alone, as the key (d, 0, 0). It returns true
// if d was retained (i.e. it is among the k smallest seen so far). A NaN
// is never retained.
func (q *DistanceQueue) Insert(d float64) bool {
	_, ok := q.Offer(d, 0, 0)
	return ok
}

// Offer offers the key (d, left, right). It reports whether the key is
// retained, among the k smallest offered so far, and if so the slot it
// takes: a slot that was free, or the slot of the key it evicts. A NaN
// is never retained.
func (q *DistanceQueue) Offer(d float64, left, right uint64) (slot int32, ok bool) {
	if !q.full {
		return q.fill(d, left, right)
	}
	top := q.top
	s := top[0]
	d += 0 // −0 + 0 is +0; every other d is unchanged
	o := key{d, left, right}
	if !after(&q.keys[s], &o) { // NaN: never after, so rejected
		return -1, false
	}
	q.kept++
	q.keys[s] = o
	if x := (d - q.base) * q.scale; x < q.below {
		b := 0
		if x > 0 {
			b = int(x)
		}
		q.next[s] = q.head[b]
		q.head[b] = s
		n := len(top) - 1
		q.top = top[:n]
		if n > 0 {
			q.sift(top[:n], 0, top[n])
		} else {
			q.descend()
		}
	} else {
		q.sift(top, 0, s)
	}
	q.cutoff = q.keys[q.top[0]].d
	return s, true
}

// Cutoff returns qDmax: +Inf until k offers are held, then the current
// k-th smallest distance.
func (q *DistanceQueue) Cutoff() float64 { return q.cutoff }

// Max returns the largest key held. It is valid once k offers are held.
func (q *DistanceQueue) Max() (d float64, left, right uint64) {
	m := &q.keys[q.top[0]]
	return m.d, m.left, m.right
}

// CountAtMost returns how many of the held keys have a distance of at
// most d.
func (q *DistanceQueue) CountAtMost(d float64) int {
	n := 0
	for i := range q.keys[:q.n] {
		n += b2i(q.keys[i].d <= d)
	}
	return n
}

// fill holds one of the first k offers in the next free slot, and lays
// the buckets out at the k-th.
func (q *DistanceQueue) fill(d float64, left, right uint64) (int32, bool) {
	if d != d {
		return -1, false
	}
	if q.slab == nil {
		q.take()
	}
	s := int32(q.n)
	q.keys[s] = key{d + 0, left, right}
	q.n++
	if q.n == q.k {
		q.full = true
		q.layout(q.k)
		q.cutoff = q.keys[q.top[0]].d
	}
	return s, true
}

// take gives the queue a slab from distSlabs, replacing its arrays by
// ones sized to k if they serve a smaller k.
func (q *DistanceQueue) take() {
	s := distSlabs.Get().(*distSlab)
	k, nb := q.k, buckets(q.k)
	if cap(s.keys) < k {
		s.keys, s.top, s.next, s.head = make([]key, k), make([]int32, k), make([]int32, k), make([]int32, nb)
	}
	q.slab, q.keys, q.top, q.next, q.head = s, s.keys[:k], s.top[:0], s.next[:k], s.head[:nb]
}

// layout spreads the keys of slots 0..n−1 over the buckets, by the range
// of their finite distances, and heapifies the top non-empty bucket.
// Every slot must be in a list or unplaced: none in top.
func (q *DistanceQueue) layout(n int) {
	nb := buckets(n)
	keys, next, head := q.keys[:n], q.next, q.head[:nb]
	q.head = head

	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range keys {
		v := keys[i].d
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
	for i := range keys {
		b := 0
		if x := (keys[i].d - q.base) * q.scale; x >= last {
			b = nb - 1
		} else if x > 0 {
			b = int(x)
		}
		next[i] = head[b]
		head[b] = int32(i)
	}
	q.kept = 0
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
		q.layout(q.k)
		return
	}
	q.materialize(b)
}

// materialize moves bucket b's list into the empty top heap and
// heapifies it.
func (q *DistanceQueue) materialize(b int) {
	top := q.top[:0]
	for s := q.head[b]; s >= 0; s = q.next[s] {
		top = append(top, s)
	}
	q.head[b] = -1
	for i := len(top)/2 - 1; i >= 0; i-- {
		q.sift(top, i, top[i])
	}
	q.top, q.topB = top, b
	q.below = float64(b)
	if b == 0 {
		q.below = math.Inf(-1)
	}
}

// sift places slot s in the max-heap h at the hole i: the child with
// the larger key moves up while its key orders after s's. Which child is
// larger is a coin toss on a join's offers, so the sift adds the
// comparison's outcome to the child index (b2i) instead of branching on
// it.
func (q *DistanceQueue) sift(h []int32, i int, s int32) {
	keys := q.keys
	ks := &keys[s]
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n {
			child += b2i(after(&keys[h[right]], &keys[h[child]]))
		}
		if !after(&keys[h[child]], ks) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = s
}

// Sorted returns the held slots in key order, bucket by bucket, each
// bucket sorted on its own: no comparison sort over all k. It ends the
// queue's offers, which only Release may follow, and the slice is the
// queue's own storage, valid until then.
func (q *DistanceQueue) Sorted() []int32 {
	n := q.n
	if n == 0 {
		return nil
	}
	if !q.full {
		q.layout(n)
	}
	// The top heap's slots order after every listed one: they go last,
	// and the lists fill the array from the front.
	m := len(q.top)
	out := q.top[:n]
	copy(out[n-m:], out[:m])
	at := 0
	for b := 0; b < q.topB; b++ {
		from := at
		for s := q.head[b]; s >= 0; s = q.next[s] {
			out[at] = s
			at++
		}
		q.sortSlots(out[from:at])
	}
	q.sortSlots(out[at:])
	q.n, q.full, q.top = 0, false, q.top[:0]
	return out
}

// sortSlots sorts slots by their keys.
func (q *DistanceQueue) sortSlots(s []int32) {
	keys := q.keys
	slices.SortFunc(s, func(a, b int32) int { return b2i(after(&keys[a], &keys[b])) - b2i(after(&keys[b], &keys[a])) })
}

// Release empties the queue and gives its arrays back to distSlabs: a
// query calls it after its last Cutoff or Sorted. It is idempotent, and
// a released queue may be offered to again; it takes fresh arrays.
func (q *DistanceQueue) Release() {
	if q.slab == nil {
		return
	}
	distSlabs.Put(q.slab)
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
