package storage

import (
	"sync"
	"sync/atomic"
)

// BufferPool caches pages of a Store under an LRU replacement policy.
// Its capacity is specified in bytes (the paper varies the R-tree
// buffer from 64 KB to 1024 KB in Figure 13) and converted into whole
// page frames.
//
// The pool is read-only, as every caller is: trees are immutable once
// packed, and Pack, the hybrid queue and the external sorter write to
// their stores directly. Pin and Get report whether the access was a
// buffer hit, so callers can attribute logical vs physical node
// accesses (Table 2).
//
// The pool does two jobs, kept apart. The LRU model decides hit, miss
// and eviction; it is a fixed array of slots linked in recency order
// and a page-indexed table of where each page sits, so it allocates
// nothing once the store's pages exist. The page bytes sit in frames,
// and where they come from depends on the store: a MemStore lends its
// own page (no allocation, no copy), any other store (a FileStore, or a
// wrapper such as FaultStore) is read into the frame's own page-size
// buffer.
//
// A frame is recycled only when nobody holds it. Pin hands a frame out
// and Release gives it back. A frame the LRU model evicts while no pin
// is held goes on the pool's free list, and the next miss reads into
// its buffer (over a MemStore only the frame itself is reused: the
// store's lent bytes are never written). A frame evicted while pinned
// is never recycled: its holder keeps reading unchanged bytes, and the
// garbage collector takes the frame after Release. Get is a pin that is
// never released: the bytes it returns are never written again.
//
// Concurrency: every operation but Release is serialized on an internal
// mutex, so the pool may be shared by multiple goroutines (how
// concurrent queries on one index use its R-tree pool). Release is one
// atomic decrement.
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
	free       *Frame // frames no slot and no pin holds, linked by next
	stats      BufferStats
}

// slot is one frame of the LRU model: the page it holds, that page's
// frame, and its neighbours in recency order (-1 past either end).
type slot struct {
	frame      *Frame
	id         PageID
	prev, next int32
}

// Frame is one cached page, handed out by Pin. Its bytes stay valid and
// unchanged until Release, whatever the pool evicts meanwhile.
type Frame struct {
	data []byte
	pins atomic.Int32
	// kept marks a frame whose bytes Get handed out. They may never be
	// written again, so recycling it reuses only the struct.
	kept bool
	next *Frame // the free list's link
}

// Bytes returns the page. It must not be written, nor read after
// Release.
func (f *Frame) Bytes() []byte { return f.data }

// Release gives back one pin taken by Pin. A Release without a pin
// panics: it could let a frame another reader holds be recycled.
func (f *Frame) Release() {
	if f.pins.Add(-1) < 0 {
		f.pins.Add(1)
		panic("storage: Frame released more often than pinned")
	}
}

// BufferStats counts buffer pool activity.
type BufferStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// NewBufferPool returns a pool over store holding at most capacityBytes
// of pages (minimum one frame). The LRU model is sized for the store's
// current pages and grows only if the store does. Frames for as many
// pages, plus one spare because a miss in a full pool reads before it
// evicts, are made up front; a miss makes another only when frames left
// the pool pinned. Their page buffers are made by the first miss that
// needs them.
func NewBufferPool(store Store, capacityBytes int) *BufferPool {
	frames := max(capacityBytes/store.PageSize(), 1)
	pages := store.NumPages()
	mem, _ := store.(*MemStore)
	p := &BufferPool{
		store:  store,
		mem:    mem,
		frames: frames,
		slots:  make([]slot, 0, min(frames, pages)),
		where:  make([]int32, pages),
		head:   -1,
		tail:   -1,
	}
	slab := make([]Frame, min(frames, pages)+1)
	for i := range slab {
		slab[i].next, p.free = p.free, &slab[i]
	}
	return p
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

// Pin returns page id's frame, pinned, with the hit/miss outcome and
// the evictions this access caused. The frame's bytes (over a MemStore,
// the store's own page) must not be written; the caller reads them
// until it calls Release, once.
func (p *BufferPool) Pin(id PageID) (*Frame, Access, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, acc, err := p.lookup(id)
	if err != nil {
		return nil, acc, err
	}
	f.pins.Add(1)
	return f, acc, nil
}

// Get is Pin without Release: it returns the contents of page id, with
// the hit/miss outcome and the evictions this access caused. The
// returned slice is the cached frame (over a MemStore, the store's own
// page) and must not be written; it stays valid and unchanged for good.
// The pool never reuses that buffer, so a Get miss over a copying store
// costs a fresh page.
func (p *BufferPool) Get(id PageID) (data []byte, acc Access, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, acc, err := p.lookup(id)
	if err != nil {
		return nil, acc, err
	}
	f.kept = true
	return f.data, acc, nil
}

// lookup returns the frame holding page id, reading it into a frame on
// a miss and evicting the least recently used page when the pool is
// full. A failed read leaves the LRU model as it was. p.mu is held.
func (p *BufferPool) lookup(id PageID) (*Frame, Access, error) {
	if int(id) < len(p.where) {
		if s := p.where[id] - 1; s >= 0 {
			if s != p.head {
				p.unlink(s)
				p.pushFront(s)
			}
			p.stats.Hits++
			return p.slots[s].frame, Access{Hit: true}, nil
		}
	}
	p.stats.Misses++
	f, err := p.read(id)
	if err != nil {
		return nil, Access{}, err
	}
	var acc Access
	var s int32
	if len(p.slots) < p.frames {
		s = int32(len(p.slots))
		p.slots = append(p.slots, slot{})
	} else {
		s = p.tail
		p.unlink(s)
		p.where[p.slots[s].id] = 0
		p.recycle(p.slots[s].frame)
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
	p.slots[s] = slot{frame: f, id: id}
	p.pushFront(s)
	p.where[id] = s + 1
	return f, acc, nil
}

// read fills a frame with page id's bytes: lent by a MemStore, or read
// from any other store into the buffer of a free frame (a fresh one
// when the free list is empty or its frame gave its buffer to Get). A
// frame whose read fails goes back on the free list.
func (p *BufferPool) read(id PageID) (*Frame, error) {
	f := p.free
	if f != nil {
		p.free, f.next = f.next, nil
	} else {
		f = new(Frame)
	}
	var err error
	if p.mem != nil {
		f.data, err = p.mem.lend(id)
	} else {
		if f.data == nil {
			f.data = make([]byte, p.store.PageSize())
		}
		err = p.store.ReadPage(id, f.data)
	}
	if err != nil {
		p.recycle(f)
		return nil, err
	}
	return f, nil
}

// recycle puts f, which no slot holds any longer, on the free list,
// unless a pin still holds it: then its holder keeps it alive and the
// garbage collector takes it after Release. A frame Get handed out
// gives up its struct but not its bytes. Pins are only taken under
// p.mu, which is held, so a frame found unpinned stays unpinned.
func (p *BufferPool) recycle(f *Frame) {
	if f.pins.Load() != 0 {
		return
	}
	if f.kept {
		f.data, f.kept = nil, false
	}
	f.next, p.free = p.free, f
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
// cold-start the cache. Unpinned frames go on the free list, as on
// eviction. It cannot fail: the pool holds nothing a store has not; the
// error is always nil.
func (p *BufferPool) Invalidate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sl := range p.slots {
		p.recycle(sl.frame)
	}
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
