package hybridq

import (
	"sync"

	"distjoin/internal/geom"
)

// key is what the main queue's heap sifts and its split sorts: the
// fields the order reads, the pair's flags, and the slot of its two
// rectangles in the heap's slab. 32 bytes, where a Pair is 104: a sift
// level, a split's copy and a sort swap move a third of a Pair, and the
// rectangles, which no comparison reads, stay where the push put them
// until the pair leaves the heap.
type key struct {
	Dist        float64
	Left, Right uint64
	slot        uint32 // index of the pair's rectangles in pairHeap.rects
	flags       uint32 // flagLeftObj | flagRightObj | flagRefined, as in a record
}

// rectPair is the payload a key leaves in the slab: the Pair's
// LeftRect and RightRect.
type rectPair struct{ left, right geom.Rect }

// resultFlags are the flag bits of an <object, object> pair.
const resultFlags = flagLeftObj | flagRightObj

func (k *key) isResult() bool { return k.flags&resultFlags == resultFlags }

// keyLess is PairLess over keys: the same comparison body, so a key
// orders exactly as the pair it stands for.
func keyLess(a, b *key) bool {
	return ordered(a.Dist, b.Dist, a.isResult(), b.isResult(), a.Left, b.Left, a.Right, b.Right)
}

// pairHeap is the queue's in-memory min-heap: pqueue.Heap specialised
// to keys, so that its sifts call keyLess directly and the compiler
// inlines it, where pqueue.Heap calls its comparator through a function
// value at every level. The sifts are pqueue.Heap's, comparison for
// comparison, and keyLess ranks keys as PairLess ranks their pairs, so
// the pop order is identical to a pqueue.Heap of Pairs ordered by
// PairLess, among pairs PairLess ranks equal too. Like the distance
// queue's, siftDown picks the smaller child by adding the comparison's
// outcome to the index (b2i) rather than branching on it: a popped
// heap's last key sifts to the bottom, and which child is smaller is a
// coin toss at every level.
//
// A pushed pair's rectangles go to a free slot of rects, and its key
// records the slot; a popped key's slot goes on the free list. An empty
// heap holds no slot, so swapIn decodes a segment into slots 0..n-1.
//
// The three arrays are pooled: the first push takes them from
// heapSlabs, they grow by append, and release gives them back, so a
// query on a warm pool pushes into arrays an earlier query grew and
// allocates none.
type pairHeap struct {
	keys   []key
	rects  []rectPair // indexed by key.slot
	free   []uint32   // slots of rects no key holds
	slab   *heapSlab  // the pooled box the arrays came from; nil while they are nil
	moving key        // the key a sift places; stale between operations
}

// heapSlab holds one heap's arrays while they are pooled, each as long
// as the largest heap it has served: at most a queue's capacity plus
// one, or a tie run kept in memory whole. Keys and rectangles hold no
// pointers, so a pooled slab pins nothing else.
type heapSlab struct {
	keys  []key
	rects []rectPair
	free  []uint32
}

// heapSlabs holds the arrays released heaps gave back.
var heapSlabs = sync.Pool{New: func() any { return new(heapSlab) }}

// Len returns the number of pairs.
func (h *pairHeap) Len() int { return len(h.keys) }

// PushFrom adds a copy of *p: its rectangles into a free slot, the
// rest into a key.
func (h *pairHeap) PushFrom(p *Pair) {
	if h.slab == nil {
		h.take()
	}
	slot := h.slot()
	r := &h.rects[slot]
	r.left, r.right = p.LeftRect, p.RightRect
	h.moving = key{Dist: p.Dist, Left: p.Left, Right: p.Right, slot: slot, flags: p.flags()}
	h.keys = append(h.keys, h.moving)
	h.siftUp(len(h.keys) - 1)
}

// slot returns a slot of rects no key holds, growing rects when the
// free list is empty.
func (h *pairHeap) slot() uint32 {
	if n := len(h.free); n > 0 {
		s := h.free[n-1]
		h.free = h.free[:n-1]
		return s
	}
	h.rects = append(h.rects, rectPair{})
	return uint32(len(h.rects) - 1)
}

// load writes the pair k stands for into *out.
func (h *pairHeap) load(k *key, out *Pair) {
	k.assemble(out)
	r := &h.rects[k.slot]
	out.LeftRect, out.RightRect = r.left, r.right
}

// PeekInto writes the minimum pair into *out. It panics on an empty
// heap.
func (h *pairHeap) PeekInto(out *Pair) { h.load(&h.keys[0], out) }

// PopInto removes the minimum pair and writes it into *out. It panics
// on an empty heap.
func (h *pairHeap) PopInto(out *Pair) {
	top := &h.keys[0]
	h.load(top, out)
	last := len(h.keys) - 1
	if last == 0 {
		h.Clear()
		return
	}
	h.free = append(h.free, top.slot)
	h.moving = h.keys[last]
	h.keys = h.keys[:last]
	h.siftDown(0)
}

// Clear removes all pairs and frees every slot, retaining capacity.
func (h *pairHeap) Clear() {
	h.keys, h.rects, h.free = h.keys[:0], h.rects[:0], h.free[:0]
}

// freeSlot puts the slot of a key leaving the heap other than by
// PopInto (a split spilling it) on the free list.
func (h *pairHeap) freeSlot(k *key) { h.free = append(h.free, k.slot) }

// decodeInto appends the record in buf as a key holding a fresh slot,
// decoded straight into the key and the slab: the heap must hold no
// freed slot, as an emptied heap does not.
func (h *pairHeap) decodeInto(buf []byte) {
	if h.slab == nil {
		h.take()
	}
	slot := uint32(len(h.rects))
	h.rects = append(h.rects, rectPair{})
	h.keys = append(h.keys, key{slot: slot})
	r := &h.rects[slot]
	h.keys[len(h.keys)-1].decode(buf, &r.left, &r.right)
}

// heapify orders keys a swap-in decoded in place, exactly as pushing
// them one by one in decoded order would: each key sifts up from its
// own index among the keys before it.
func (h *pairHeap) heapify() {
	for i := 1; i < len(h.keys); i++ {
		h.moving = h.keys[i]
		h.siftUp(i)
	}
}

// take gives an empty heap its arrays from heapSlabs.
func (h *pairHeap) take() {
	h.slab = heapSlabs.Get().(*heapSlab)
	h.keys, h.rects, h.free = h.slab.keys[:0], h.slab.rects[:0], h.slab.free[:0]
}

// release empties the heap and gives its arrays back to heapSlabs; the
// next push takes them again. A heap without arrays has none to give.
func (h *pairHeap) release() {
	if h.slab == nil {
		return
	}
	*h.slab = heapSlab{keys: h.keys[:0], rects: h.rects[:0], free: h.free[:0]}
	heapSlabs.Put(h.slab)
	h.slab, h.keys, h.rects, h.free = nil, nil, nil, nil
}

// siftUp places h.moving, which already sits at index i, treating i as
// a hole: ancestors that order after it move down one level each.
func (h *pairHeap) siftUp(i int) {
	keys, k, start := h.keys, &h.moving, i
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(k, &keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	if i != start {
		keys[i] = *k
	}
}

// siftDown places h.moving, treating index i as a hole: the smaller
// child moves up while it orders before the key being placed.
func (h *pairHeap) siftDown(i int) {
	keys, k := h.keys, &h.moving
	n := len(keys)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n {
			child += b2i(keyLess(&keys[right], &keys[child]))
		}
		if !keyLess(&keys[child], k) {
			break
		}
		keys[i] = keys[child]
		i = child
	}
	keys[i] = *k
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set
// (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
