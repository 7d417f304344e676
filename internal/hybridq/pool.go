package hybridq

import (
	"sync"

	"distjoin/internal/storage"
)

// Scratch for the queue's disk path. A heap split copies the heap's
// keys into a slab to sort them; a segment swap-in needs a page-size
// read buffer, and every segment carries a page-size write buffer.
// Without reuse each spill/reload event allocates the slab and the
// buffers afresh — on reload-heavy runs (HS-IDJ drains and refills the
// heap constantly) that is the dominant allocation source of the whole
// join.
//
// A scratch bundles all three with the queue's segment list and its
// array of segment lower bounds, and one more thing: the spill store of
// a queue built without Config.Store, with the list of its pages no
// segment holds. The store is only a page table: its pages come from
// pagePool and go back there at Release, so the next query's spills
// write into them wherever its scratch comes from. A queue with its own
// store uses the slab, page and segments and leaves the spill store
// and its free list empty.
//
// A queue takes a scratch from scratchPool at its first spill and keeps
// it until Queue.Release, the only Put of a scratch or a page in the
// package: between the two the scratch and its pages belong to that
// queue and its single goroutine, so no function can touch memory it
// has already given back, and a collection in the middle of a query
// cannot take the slab or the pages away from a live queue. A queue
// that is never released leaves its scratch and pages to the
// collector.
type scratch struct {
	items   []key            // sort slab of a heap split
	order   byKeyOrder       // the keys tieSafeSplit sorts
	page    []byte           // read buffer of a swap-in
	segs    []*segment       // consumed segments, write buffers attached
	segList []*segment       // Queue.segs, empty while pooled
	lows    []float64        // Queue.lows, empty while pooled
	spill   spillStore       // a private queue's pages, empty while pooled
	free    []storage.PageID // spill's pages no segment holds, empty while pooled
	// routes maps a model index (Queue.route) to the last segment
	// searchSegment returned for a distance of that index; nil while
	// pooled. An entry names a segment of Queue.segs: swapIn and Drain
	// clear the entries of the segments they remove.
	routes [maxModelSegments + 1]*segment
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// spillPage is one page of a private queue's spill store.
type spillPage = [storage.DefaultPageSize]byte

// pagePool holds the spill pages released queues gave back. Pages are
// interchangeable: a query whose scratch last served a smaller one
// still finds the pages the queries before it released. A page no spill
// takes within two collections is dropped, so what the pool keeps
// follows the spill volume of recent queries, not the largest query
// ever run.
var pagePool = sync.Pool{New: func() any { return new(spillPage) }}

// spillStore is the spill store of a queue built without Config.Store:
// a table of pages from pagePool, indexed by PageID. A page holds
// whatever its last query wrote until the queue writes it, and the
// queue reads no page it has not written.
type spillStore struct{ pages []*spillPage }

// Alloc takes a page from pagePool.
func (s *spillStore) Alloc() (storage.PageID, error) {
	s.pages = append(s.pages, pagePool.Get().(*spillPage))
	return storage.PageID(len(s.pages) - 1), nil
}

// ReadPage copies page id into buf.
func (s *spillStore) ReadPage(id storage.PageID, buf []byte) error {
	copy(buf, s.pages[id][:])
	return nil
}

// WritePage copies buf into page id.
func (s *spillStore) WritePage(id storage.PageID, buf []byte) error {
	copy(s.pages[id][:], buf)
	return nil
}

// release gives every page back to pagePool and empties the table,
// keeping its capacity.
func (s *spillStore) release() {
	for i, p := range s.pages {
		pagePool.Put(p)
		s.pages[i] = nil
	}
	s.pages = s.pages[:0]
}

// slab returns the key slab with len 0 and capacity at least n. The
// caller appends at most n keys, so the slab never moves.
func (sc *scratch) slab(n int) []key {
	if cap(sc.items) < n {
		sc.items = make([]key, 0, n)
	}
	return sc.items[:0]
}

// segListCap is the capacity a scratch's segment list and bound array
// start with: room for every model segment (maxModelSegments) and as
// many overflow-split ones. Append growth from nil would take seven
// allocations each to reach the model segments alone, on every fresh
// scratch and on every pooled one that served smaller queues.
const segListCap = 2 * maxModelSegments

// sizeSegList gives the segment list and bound array their starting
// capacity, unless they have it.
func (sc *scratch) sizeSegList() {
	if cap(sc.segList) < segListCap {
		sc.segList = make([]*segment, 0, segListCap)
	}
	if cap(sc.lows) < segListCap {
		sc.lows = make([]float64, 0, segListCap)
	}
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

// unroute clears the route table's entries for seg, which is leaving
// the queue's segment list.
func (sc *scratch) unroute(seg *segment) {
	for i, s := range sc.routes {
		if s == seg {
			sc.routes[i] = nil
		}
	}
}

// retire puts a segment nothing reads any more on the free list.
func (sc *scratch) retire(s *segment) { sc.segs = append(sc.segs, s) }

// byKeyOrder sorts keys by keyLess without the per-call closure
// allocation of sort.Slice. Both stdlib entry points instantiate the
// same pdqsort, so the permutation (ties included) is identical to
// the sort.Slice call it replaced.
type byKeyOrder []key

func (s byKeyOrder) Len() int           { return len(s) }
func (s byKeyOrder) Less(i, j int) bool { return keyLess(&s[i], &s[j]) }
func (s byKeyOrder) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
