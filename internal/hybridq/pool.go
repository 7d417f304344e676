package hybridq

import "sync"

// Scratch pooling for the queue's disk path. A heap split copies the
// whole heap into a []Pair slab to sort it, and a segment swap-in
// decodes every spilled record into one; both also need page-size
// byte buffers (segment write buffers, the reload read page). Without
// reuse each spill/reload event allocates the slab and the buffers
// afresh — on reload-heavy runs (HS-IDJ drains and refills the heap
// constantly) that is the dominant allocation source of the whole
// join. The pools below make the steady state allocation-free: slabs
// and buffers cycle between concurrently running queues via
// sync.Pool.
//
// Ownership rule: a pooled object is owned by exactly one queue
// operation between get and put, on that queue's single goroutine.
// Every Pair read out of a slab is copied by value into the heap or
// encoded into a segment buffer before the slab is returned, so
// nothing reads a pooled object after its put — the -race stress test
// in pool_test.go pins this.

// pairBuf is a reusable []Pair slab. Callers hold the *pairBuf handle
// for the duration of the operation and put it back when every pair
// has been copied out.
type pairBuf struct{ items []Pair }

var pairBufPool = sync.Pool{New: func() any { return new(pairBuf) }}

// getPairBuf returns a slab with len 0 and capacity at least capHint.
func getPairBuf(capHint int) *pairBuf {
	b := pairBufPool.Get().(*pairBuf)
	if cap(b.items) < capHint {
		b.items = make([]Pair, 0, capHint)
	}
	b.items = b.items[:0]
	return b
}

// putPairBuf recycles the slab. The caller must not touch b.items
// afterwards.
func putPairBuf(b *pairBuf) { pairBufPool.Put(b) }

// Page buffers are pooled as plain []byte. To keep the put side
// allocation-free the slice headers travel in dedicated holder
// objects: pagePool holds full buffers, pageHolderPool recycles the
// emptied holders for the next put.
var (
	pagePool       sync.Pool // *[]byte with a buffer attached
	pageHolderPool sync.Pool // *[]byte with nil contents
)

// getPageBuf returns a zeroed-length-irrelevant buffer of exactly
// size bytes. A pooled buffer of a different page size (stores can be
// configured independently) is dropped and a fresh one allocated.
func getPageBuf(size int) []byte {
	if h, _ := pagePool.Get().(*[]byte); h != nil {
		b := *h
		*h = nil
		pageHolderPool.Put(h)
		if cap(b) >= size {
			return b[:size]
		}
	}
	return make([]byte, size)
}

// putPageBuf recycles a buffer obtained from getPageBuf. nil is a
// no-op, so callers can retire segment buffers unconditionally.
func putPageBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	h, _ := pageHolderPool.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b
	pagePool.Put(h)
}

// Segments recycle whole — header, page-ID list, and write buffer
// together — so a steady spill/reload rhythm allocates no segment
// state at all. The buffer stays attached across recycles; a queue
// whose store uses a larger page size than the pooled segment's
// buffer gets a fresh buffer on get.
var segPool = sync.Pool{New: func() any { return new(segment) }}

// getSegment returns an empty segment covering [lo, hi) with a
// pageSize write buffer.
func getSegment(lo, hi float64, pageSize int) *segment {
	s := segPool.Get().(*segment)
	if cap(s.buf) < pageSize {
		s.buf = make([]byte, pageSize)
	}
	s.buf = s.buf[:pageSize]
	s.lo, s.hi = lo, hi
	s.pages = s.pages[:0]
	s.bufCount = 0
	s.count = 0
	return s
}

// putSegment recycles a consumed segment. The caller must copy out
// any field it still needs (bounds, page IDs) before the put.
func putSegment(s *segment) { segPool.Put(s) }

// byPairOrder sorts a slab by PairLess without the per-call closure
// allocation of sort.Slice. Both stdlib entry points instantiate the
// same pdqsort, so the permutation (ties included) is identical to
// the sort.Slice call it replaced.
type byPairOrder []Pair

func (s byPairOrder) Len() int           { return len(s) }
func (s byPairOrder) Less(i, j int) bool { return PairLess(&s[i], &s[j]) }
func (s byPairOrder) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
