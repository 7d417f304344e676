package hybridq

import (
	"slices"
	"sync"
)

// pairHeap is the queue's in-memory min-heap: pqueue.Heap specialised
// to Pair, so that its sifts call PairLess directly and the compiler
// inlines it, where pqueue.Heap calls its comparator through a function
// value at every level. The sifts are pqueue.Heap's, comparison for
// comparison, so the pop order is identical to a pqueue.Heap ordered by
// PairLess, among pairs PairLess ranks equal too. Like the distance
// queue's, siftDown picks the smaller child by adding the comparison's
// outcome to the index (b2i) rather than branching on it: a popped
// heap's last pair sifts to the bottom, and which child is smaller is a
// coin toss at every level. BenchmarkHeapPushPop/pair104 times that
// about a tenth slower than a branch, yet the repository benchmark's
// joins run about 3 % faster with it: judge a change here end to end.
//
// The backing array is pooled: the first push takes one from
// heapSlabs, a full heap grows it by append, and release gives it
// back, so a query on a warm pool pushes into an array an earlier
// query grew and allocates none.
type pairHeap struct {
	items  []Pair
	slab   *[]Pair // the pooled box items came from; nil while items is nil
	moving Pair    // the last pair Pop's sift places; stale between operations
}

// heapSlabs holds the backing arrays released heaps gave back, each as
// large as the largest heap it has served: at most a queue's capacity
// plus one, or a tie run kept in memory whole. Pairs hold no pointers,
// so a pooled array pins nothing else.
var heapSlabs = sync.Pool{New: func() any { return new([]Pair) }}

// Len returns the number of pairs.
func (h *pairHeap) Len() int { return len(h.items) }

// PushFrom adds a copy of *p, which must not point into the heap's own
// items.
func (h *pairHeap) PushFrom(p *Pair) {
	if len(h.items) == cap(h.items) {
		h.grow()
	}
	h.items = append(h.items, *p)
	h.siftUp(len(h.items)-1, p)
}

// Peek returns the minimum pair. It panics on an empty heap.
func (h *pairHeap) Peek() Pair { return h.items[0] }

// Pop removes and returns the minimum pair. It panics on an empty heap.
func (h *pairHeap) Pop() Pair {
	top := h.items[0]
	last := len(h.items) - 1
	h.moving = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// Clear removes all pairs, retaining capacity.
func (h *pairHeap) Clear() { h.items = h.items[:0] }

// grow makes room for one more pair: an empty heap without an array
// takes one from heapSlabs, a full one grows the one it has.
func (h *pairHeap) grow() {
	if h.slab == nil {
		h.slab = heapSlabs.Get().(*[]Pair)
		h.items = (*h.slab)[:0]
	}
	h.items = slices.Grow(h.items, 1)
}

// release empties the heap and gives its array back to heapSlabs; the
// next push takes one again. A heap without an array has none to give.
func (h *pairHeap) release() {
	if h.slab == nil {
		return
	}
	*h.slab = h.items[:0]
	heapSlabs.Put(h.slab)
	h.slab, h.items = nil, nil
}

// Items exposes the heap-ordered backing slice (minimum at index 0).
func (h *pairHeap) Items() []Pair { return h.items }

// siftUp places *p, which already sits at index i, treating i as a
// hole: ancestors that order after it move down one level each.
func (h *pairHeap) siftUp(i int, p *Pair) {
	items, start := h.items, i
	for i > 0 {
		parent := (i - 1) / 2
		if !PairLess(p, &items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	if i != start {
		items[i] = *p
	}
}

// siftDown places h.moving, treating index i as a hole: the smaller
// child moves up while it orders before the pair being placed.
func (h *pairHeap) siftDown(i int) {
	items, p := h.items, &h.moving
	n := len(items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n {
			child += b2i(PairLess(&items[right], &items[child]))
		}
		if !PairLess(&items[child], p) {
			break
		}
		items[i] = items[child]
		i = child
	}
	items[i] = *p
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set
// (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
