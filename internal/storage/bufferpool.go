package storage

import (
	"container/list"
	"sync"
)

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
// Concurrency: all operations are serialized on an internal mutex, so
// the pool may be shared by multiple goroutines (how concurrent queries
// on one index use its R-tree pool). The slices Get returns stay valid
// and immutable across later pool operations: a frame's contents are
// never rewritten, and eviction merely drops the pool's reference.
type BufferPool struct {
	mu     sync.Mutex
	store  Store
	frames int
	table  map[PageID]*list.Element
	lru    *list.List // front = most recently used
	stats  BufferStats
}

type frame struct {
	id   PageID
	data []byte
}

// BufferStats counts buffer pool activity.
type BufferStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// NewBufferPool returns a pool over store holding at most capacityBytes
// of pages (minimum one frame).
func NewBufferPool(store Store, capacityBytes int) *BufferPool {
	frames := capacityBytes / store.PageSize()
	if frames < 1 {
		frames = 1
	}
	return &BufferPool{
		store:  store,
		frames: frames,
		table:  make(map[PageID]*list.Element, frames),
		lru:    list.New(),
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
// the evictions this access caused. The returned slice aliases the
// cached frame and must not be written.
func (p *BufferPool) Get(id PageID) (data []byte, acc Access, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.table[id]; ok {
		p.lru.MoveToFront(el)
		p.stats.Hits++
		return el.Value.(*frame).data, Access{Hit: true}, nil
	}
	p.stats.Misses++
	buf := make([]byte, p.store.PageSize())
	if err := p.store.ReadPage(id, buf); err != nil {
		return nil, Access{}, err
	}
	for p.lru.Len() >= p.frames {
		back := p.lru.Back()
		p.lru.Remove(back)
		delete(p.table, back.Value.(*frame).id)
		p.stats.Evictions++
		acc.Evictions++
	}
	p.table[id] = p.lru.PushFront(&frame{id: id, data: buf})
	return buf, acc, nil
}

// Invalidate drops every cached frame; used between experiment runs to
// cold-start the cache. It cannot fail: the pool holds nothing a store
// has not; the error is always nil.
func (p *BufferPool) Invalidate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.table = make(map[PageID]*list.Element, p.frames)
	p.lru.Init()
	return nil
}

// Stats returns cumulative pool statistics.
func (p *BufferPool) Stats() BufferStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
