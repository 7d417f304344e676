package hybridq

import "sync"

// Scratch for the queue's disk path. A heap split copies the whole
// heap into a []Pair slab to sort it, and a segment swap-in decodes
// every spilled record into one; a swap-in also needs a page-size read
// buffer, and every segment carries a page-size write buffer. Without
// reuse each spill/reload event allocates the slab and the buffers
// afresh — on reload-heavy runs (HS-IDJ drains and refills the heap
// constantly) that is the dominant allocation source of the whole
// join.
//
// A scratch bundles all three. A queue takes one from scratchPool at
// its first spill and keeps it until Queue.Release, the only Put in
// the package: between the two the scratch belongs to that queue and
// its single goroutine, so no function can touch memory it has already
// given back, and a collection in the middle of a query cannot take the
// slab away from a live queue. A queue that is never released leaves
// its scratch to the collector.
type scratch struct {
	items []Pair     // sort slab of a heap split, decode slab of a swap-in
	page  []byte     // read buffer of a swap-in
	segs  []*segment // consumed segments, write buffers attached
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// slab returns the pair slab with len 0 and capacity at least n. The
// caller appends at most n pairs, so the slab never moves.
func (sc *scratch) slab(n int) []Pair {
	if cap(sc.items) < n {
		sc.items = make([]Pair, 0, n)
	}
	return sc.items[:0]
}

// pageBuf returns the read buffer, exactly size bytes long. A buffer
// left by a queue over a smaller page size is replaced.
func (sc *scratch) pageBuf(size int) []byte {
	if cap(sc.page) < size {
		sc.page = make([]byte, size)
	}
	return sc.page[:size]
}

// segment returns an empty segment covering [lo, hi) with a pageSize
// write buffer, reusing a consumed one (header, page-ID list and
// buffer together) when the free list has any.
func (sc *scratch) segment(lo, hi float64, pageSize int) *segment {
	var s *segment
	if n := len(sc.segs); n > 0 {
		s, sc.segs = sc.segs[n-1], sc.segs[:n-1]
	} else {
		s = new(segment)
	}
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

// retire puts a segment nothing reads any more on the free list.
func (sc *scratch) retire(s *segment) { sc.segs = append(sc.segs, s) }

// byPairOrder sorts a slab by PairLess without the per-call closure
// allocation of sort.Slice. Both stdlib entry points instantiate the
// same pdqsort, so the permutation (ties included) is identical to
// the sort.Slice call it replaced.
type byPairOrder []Pair

func (s byPairOrder) Len() int           { return len(s) }
func (s byPairOrder) Less(i, j int) bool { return PairLess(&s[i], &s[j]) }
func (s byPairOrder) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
