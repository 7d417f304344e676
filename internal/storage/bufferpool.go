package storage

import "sync"

// BufferPool caches pages of a Store under an LRU replacement policy.
// Its capacity is specified in bytes (the paper varies the R-tree
// buffer from 64 KB to 1024 KB in Figure 13) and converted into whole
// page frames.
//
// The pool is read-only, as every caller is: trees are immutable once
// packed, and Pack, the hybrid queue and the external sorter write to
// their stores directly. Get reports whether the access was a buffer
// hit, so callers can attribute logical vs physical node accesses
// (Table 2).
//
// The pool does two jobs, kept apart. The LRU model decides hit, miss
// and eviction; it is a fixed array of slots linked in recency order
// and a page-indexed table of where each page sits, so it allocates
// nothing once the store's pages exist. The page bytes come from the
// store: a MemStore lends its own page (no allocation, no copy), any
// other store (a FileStore, or a wrapper such as FaultStore) is read
// into a fresh page-size buffer. That buffer cannot be recycled on
// eviction, because of the contract below.
//
// Concurrency: all operations are serialized on an internal mutex, so
// the pool may be shared by multiple goroutines (how concurrent queries
// on one index use its R-tree pool). The slices Get returns stay valid
// and immutable across later pool operations: a frame's contents are
// never rewritten, eviction merely drops the pool's reference, and a
// MemStore never writes into a page it has lent.
type BufferPool struct {
	mu     sync.Mutex
	store  Store
	mem    *MemStore // store, when it lends its pages; nil otherwise
	frames int
	// slots[:len] are the frames in use, linked from head (most recently
	// used) to tail; where[id] is page id's slot plus one, 0 when the
	// page is not cached.
	slots      []slot
	where      []int32
	head, tail int32
	stats      BufferStats
}

// slot is one frame of the LRU model: the page it holds, that page's
// bytes, and its neighbours in recency order (-1 past either end).
type slot struct {
	data       []byte
	id         PageID
	prev, next int32
}

// BufferStats counts buffer pool activity.
type BufferStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// NewBufferPool returns a pool over store holding at most capacityBytes
// of pages (minimum one frame). The LRU model is sized for the store's
// current pages; it grows only if the store does.
func NewBufferPool(store Store, capacityBytes int) *BufferPool {
	frames := max(capacityBytes/store.PageSize(), 1)
	pages := store.NumPages()
	mem, _ := store.(*MemStore)
	return &BufferPool{
		store:  store,
		mem:    mem,
		frames: frames,
		slots:  make([]slot, 0, min(frames, pages)),
		where:  make([]int32, pages),
		head:   -1,
		tail:   -1,
	}
}

// Frames returns the pool capacity in page frames.
func (p *BufferPool) Frames() int { return p.frames }

// PageSize returns the underlying store's page size.
func (p *BufferPool) PageSize() int { return p.store.PageSize() }

// Store returns the underlying store.
func (p *BufferPool) Store() Store { return p.store }

// Access describes one buffer pool access for per-query attribution:
// whether it hit, and how many frames the access evicted (always zero
// on a hit). Aggregate pool statistics remain available via Stats;
// Access lets each of the queries sharing a pool charge its own share
// to its own metrics.Collector, with no mutable counter shared across
// goroutines.
type Access struct {
	Hit       bool
	Evictions int64
}

// Get returns the contents of page id, with the hit/miss outcome and
// the evictions this access caused. The returned slice is the cached
// frame (over a MemStore, the store's own page) and must not be
// written.
func (p *BufferPool) Get(id PageID) (data []byte, acc Access, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) < len(p.where) {
		if s := p.where[id] - 1; s >= 0 {
			if s != p.head {
				p.unlink(s)
				p.pushFront(s)
			}
			p.stats.Hits++
			return p.slots[s].data, Access{Hit: true}, nil
		}
	}
	p.stats.Misses++
	if data, err = p.read(id); err != nil {
		return nil, Access{}, err
	}
	var s int32
	if len(p.slots) < p.frames {
		s = int32(len(p.slots))
		p.slots = append(p.slots, slot{})
	} else {
		s = p.tail
		p.unlink(s)
		p.where[p.slots[s].id] = 0
		p.stats.Evictions++
		acc.Evictions++
	}
	if int(id) >= len(p.where) {
		// The store has grown since the pool was made; id is valid, as
		// the read succeeded.
		where := make([]int32, max(int(id)+1, p.store.NumPages()))
		copy(where, p.where)
		p.where = where
	}
	p.slots[s] = slot{data: data, id: id}
	p.pushFront(s)
	p.where[id] = s + 1
	return data, acc, nil
}

// read returns page id's bytes for a new frame: lent by a MemStore, or
// read into a fresh buffer from any other store.
func (p *BufferPool) read(id PageID) ([]byte, error) {
	if p.mem != nil {
		return p.mem.lend(id)
	}
	buf := make([]byte, p.store.PageSize())
	if err := p.store.ReadPage(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// unlink takes slot s out of the recency list.
func (p *BufferPool) unlink(s int32) {
	sl := &p.slots[s]
	if sl.prev >= 0 {
		p.slots[sl.prev].next = sl.next
	} else {
		p.head = sl.next
	}
	if sl.next >= 0 {
		p.slots[sl.next].prev = sl.prev
	} else {
		p.tail = sl.prev
	}
}

// pushFront makes slot s the most recently used.
func (p *BufferPool) pushFront(s int32) {
	sl := &p.slots[s]
	sl.prev, sl.next = -1, p.head
	if p.head >= 0 {
		p.slots[p.head].prev = s
	} else {
		p.tail = s
	}
	p.head = s
}

// Invalidate drops every cached frame; used between experiment runs to
// cold-start the cache. It cannot fail: the pool holds nothing a store
// has not; the error is always nil.
func (p *BufferPool) Invalidate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.slots)
	p.slots = p.slots[:0]
	clear(p.where)
	p.head, p.tail = -1, -1
	return nil
}

// Stats returns cumulative pool statistics.
func (p *BufferPool) Stats() BufferStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
