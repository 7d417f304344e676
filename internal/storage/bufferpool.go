package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// BufferPool caches pages of a Store under an LRU replacement policy.
// Its capacity is specified in bytes (the paper varies the R-tree
// buffer from 64 KB to 1024 KB in Figure 13) and converted into whole
// page frames.
//
// The pool is write-back: dirty frames are flushed when evicted or on
// Flush. Get reports whether the access was a buffer hit, so callers
// can attribute logical vs physical node accesses (Table 2).
//
// Concurrency: all operations are serialized on an internal mutex, so
// the pool may be shared by multiple goroutines. For read-only
// workloads (Get without Put — how concurrent queries on one index use
// its R-tree pool) the slices Get returns
// stay valid and immutable even across later pool operations: frame
// contents are only ever rewritten by Put, and eviction merely drops
// the pool's reference. Mixed Get/Put use from multiple goroutines
// must instead copy under the caller's own coordination, per Get's
// aliasing contract.
type BufferPool struct {
	mu     sync.Mutex
	store  Store
	frames int
	table  map[PageID]*list.Element
	lru    *list.List // front = most recently used
	stats  BufferStats
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
}

// BufferStats counts buffer pool activity.
type BufferStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Flushes   int64
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

// Get returns the contents of page id and whether it was a buffer hit.
// The returned slice aliases the cached frame and is valid until the
// next pool operation; callers that retain data must copy it.
func (p *BufferPool) Get(id PageID) (data []byte, hit bool, err error) {
	data, acc, err := p.GetAccounted(id)
	return data, acc.Hit, err
}

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

// GetAccounted is Get with per-access attribution: the returned
// Access reports the hit/miss outcome and the evictions this access
// caused. The data aliasing contract is the same as Get's.
func (p *BufferPool) GetAccounted(id PageID) (data []byte, acc Access, err error) {
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
	evicted, err := p.insertLocked(&frame{id: id, data: buf})
	if err != nil {
		return nil, Access{}, err
	}
	return buf, Access{Evictions: evicted}, nil
}

// Put installs data as the contents of page id and marks it dirty. The
// data is copied into the frame.
func (p *BufferPool) Put(id PageID, data []byte) error {
	if len(data) != p.store.PageSize() {
		return ErrBadPageSize
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.table[id]; ok {
		f := el.Value.(*frame)
		copy(f.data, data)
		f.dirty = true
		p.lru.MoveToFront(el)
		return nil
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	_, err := p.insertLocked(&frame{id: id, data: buf, dirty: true})
	return err
}

// insertLocked adds f to the pool, evicting LRU frames if full, and
// returns how many frames were evicted.
func (p *BufferPool) insertLocked(f *frame) (evicted int64, err error) {
	for p.lru.Len() >= p.frames {
		back := p.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*frame)
		if victim.dirty {
			if err := p.store.WritePage(victim.id, victim.data); err != nil {
				return evicted, fmt.Errorf("storage: evict page %d: %w", victim.id, err)
			}
			p.stats.Flushes++
		}
		p.lru.Remove(back)
		delete(p.table, victim.id)
		p.stats.Evictions++
		evicted++
	}
	p.table[f.id] = p.lru.PushFront(f)
	return evicted, nil
}

// Flush writes all dirty frames back to the store without evicting.
func (p *BufferPool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for el := p.lru.Front(); el != nil; el = el.Next() {
		f := el.Value.(*frame)
		if !f.dirty {
			continue
		}
		if err := p.store.WritePage(f.id, f.data); err != nil {
			return fmt.Errorf("storage: flush page %d: %w", f.id, err)
		}
		f.dirty = false
		p.stats.Flushes++
	}
	return nil
}

// Invalidate drops every cached frame after flushing dirty ones; used
// between experiment runs to cold-start the cache.
func (p *BufferPool) Invalidate() error {
	if err := p.Flush(); err != nil {
		return err
	}
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

// ResetStats zeroes the pool statistics (the cache contents remain).
func (p *BufferPool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = BufferStats{}
}
