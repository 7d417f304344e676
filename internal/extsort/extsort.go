// Package extsort implements an external merge sort over fixed-size
// records stored on pages. SJ-SORT — the paper's spatial-join-then-sort
// baseline (§5) — uses it to order the candidate pairs produced by the
// within-predicate spatial join; the run and merge page traffic is
// charged to the metrics collector so the baseline's I/O appears in the
// response-time figures.
package extsort

import (
	"errors"
	"fmt"
	"sort"

	"distjoin/internal/metrics"
	"distjoin/internal/pqueue"
	"distjoin/internal/storage"
)

// Codec describes the fixed-size serialization of the record type.
type Codec[T any] struct {
	// Size is the encoded record size in bytes; must fit in one page.
	Size int
	// Encode writes rec into buf (Size bytes).
	Encode func(buf []byte, rec T)
	// Decode parses a record from buf (Size bytes).
	Decode func(buf []byte) T
}

// Sorter accumulates records, spilling sorted runs to a page store
// when the memory budget fills, and merges them on demand.
type Sorter[T any] struct {
	codec    Codec[T]
	less     func(a, b *T) bool
	store    storage.Store
	mc       *metrics.Collector
	memCap   int // records held in memory before a run spills
	perPage  int
	buf      []T
	page     []byte // reusable run-write page, allocated on first spill
	runs     []run
	cache    map[int]*pageCache
	total    int
	finished bool
	err      error
}

// run is one sorted spill: a page list plus its record count.
type run struct {
	pages []storage.PageID
	count int
}

// Config parameterizes a Sorter.
type Config struct {
	// MemBytes bounds the in-memory sort buffer (minimum one record).
	MemBytes int
	// Store receives spilled runs; nil allocates a private MemStore.
	Store storage.Store
	// Metrics receives sort I/O accounting (may be nil).
	Metrics *metrics.Collector
}

// NewSorter returns an empty sorter for records ordered by less, which
// takes pointers (as pqueue.NewHeap's does) so that ordering large
// records copies nothing per comparison.
func NewSorter[T any](codec Codec[T], less func(a, b *T) bool, cfg Config) (*Sorter[T], error) {
	st := cfg.Store
	if st == nil {
		st = storage.NewMemStore(storage.DefaultPageSize)
	}
	if codec.Size <= 0 || codec.Size > st.PageSize() {
		return nil, fmt.Errorf("extsort: record size %d invalid for page size %d",
			codec.Size, st.PageSize())
	}
	memCap := cfg.MemBytes / codec.Size
	if memCap < 1 {
		memCap = 1
	}
	return &Sorter[T]{
		codec:   codec,
		less:    less,
		store:   st,
		mc:      cfg.Metrics,
		memCap:  memCap,
		perPage: st.PageSize() / codec.Size,
	}, nil
}

// Len returns the number of records added so far.
func (s *Sorter[T]) Len() int { return s.total }

// Err returns the first storage error encountered.
func (s *Sorter[T]) Err() error { return s.err }

// Add appends one record.
func (s *Sorter[T]) Add(rec T) {
	if s.err != nil || s.finished {
		return
	}
	s.buf = append(s.buf, rec)
	s.total++
	if len(s.buf) >= s.memCap {
		s.spillRun()
	}
}

// spillRun sorts the buffer and writes it out as one run.
func (s *Sorter[T]) spillRun() {
	if len(s.buf) == 0 {
		return
	}
	sort.SliceStable(s.buf, func(i, j int) bool { return s.less(&s.buf[i], &s.buf[j]) })
	r := run{count: len(s.buf)}
	if s.page == nil {
		s.page = make([]byte, s.store.PageSize())
	}
	page := s.page
	n := 0
	flush := func() {
		if n == 0 {
			return
		}
		id, err := s.store.Alloc()
		if err != nil {
			s.err = err
			return
		}
		if err := s.store.WritePage(id, page); err != nil {
			s.err = err
			return
		}
		s.mc.SortIO(0, 1, metrics.SequentialPageCost)
		r.pages = append(r.pages, id)
		n = 0
	}
	for _, rec := range s.buf {
		s.codec.Encode(page[n*s.codec.Size:], rec)
		n++
		if n == s.perPage {
			flush()
			if s.err != nil {
				return
			}
		}
	}
	flush()
	if s.err != nil {
		return
	}
	s.runs = append(s.runs, r)
	s.buf = s.buf[:0]
}

// Iterator yields merged records in nondecreasing order.
type Iterator[T any] struct {
	s     *Sorter[T]
	heads *pqueue.Heap[head[T]]
	err   error
}

// head is the cursor of one run in the merge.
type head[T any] struct {
	rec    T
	runIdx int
	recIdx int // index of rec within its run
}

// Sort finalizes the sorter and returns a merge iterator. The sorter
// accepts no further Adds.
func (s *Sorter[T]) Sort() (*Iterator[T], error) {
	if s.err != nil {
		return nil, s.err
	}
	s.finished = true
	s.spillRun()
	if s.err != nil {
		return nil, s.err
	}
	it := &Iterator[T]{
		s: s,
		heads: pqueue.NewHeap(func(a, b *head[T]) bool {
			if s.less(&a.rec, &b.rec) {
				return true
			}
			if s.less(&b.rec, &a.rec) {
				return false
			}
			// Stable across runs for determinism.
			if a.runIdx != b.runIdx {
				return a.runIdx < b.runIdx
			}
			return a.recIdx < b.recIdx
		}),
	}
	for i := range s.runs {
		rec, ok, err := s.readRecord(i, 0)
		if err != nil {
			return nil, err
		}
		if ok {
			it.heads.Push(head[T]{rec: rec, runIdx: i, recIdx: 0})
		}
	}
	return it, nil
}

// readRecord fetches record recIdx of run runIdx. A tiny per-iterator
// cache would help huge merges; runs are read a page at a time and the
// most recent page of each run is memoized below.
func (s *Sorter[T]) readRecord(runIdx, recIdx int) (rec T, ok bool, err error) {
	r := s.runs[runIdx]
	if recIdx >= r.count {
		var zero T
		return zero, false, nil
	}
	pageIdx := recIdx / s.perPage
	off := recIdx % s.perPage
	page, err := s.pageOf(runIdx, pageIdx)
	if err != nil {
		var zero T
		return zero, false, err
	}
	return s.codec.Decode(page[off*s.codec.Size:]), true, nil
}

// pageCache memoizes the current page of each run during a merge.
type pageCache struct {
	pageIdx int
	data    []byte
}

var errNoPage = errors.New("extsort: page index out of run")

func (s *Sorter[T]) pageOf(runIdx, pageIdx int) ([]byte, error) {
	r := &s.runs[runIdx]
	if pageIdx >= len(r.pages) {
		return nil, errNoPage
	}
	if s.cache == nil {
		s.cache = make(map[int]*pageCache)
	}
	c := s.cache[runIdx]
	if c != nil && c.pageIdx == pageIdx {
		return c.data, nil
	}
	if c == nil {
		c = &pageCache{pageIdx: -1, data: make([]byte, s.store.PageSize())}
		s.cache[runIdx] = c
	}
	// Reuse the run's cache buffer across page advances: the merge
	// walks each run sequentially, so without reuse a merge allocates
	// one page per page read. The entry is invalidated before the read
	// so a failed ReadPage cannot leave stale bytes labeled with a
	// valid page index.
	c.pageIdx = -1
	if err := s.store.ReadPage(r.pages[pageIdx], c.data); err != nil {
		return nil, err
	}
	s.mc.SortIO(1, 0, metrics.SequentialPageCost)
	c.pageIdx = pageIdx
	return c.data, nil
}

// Next returns the next record in sorted order; ok is false at the end
// or on error (check Err).
func (it *Iterator[T]) Next() (rec T, ok bool) {
	var zero T
	if it.err != nil || it.heads.Empty() {
		return zero, false
	}
	top := it.heads.Pop()
	next, ok2, err := it.s.readRecord(top.runIdx, top.recIdx+1)
	if err != nil {
		it.err = err
		return zero, false
	}
	if ok2 {
		it.heads.Push(head[T]{rec: next, runIdx: top.runIdx, recIdx: top.recIdx + 1})
	}
	return top.rec, true
}

// Err returns the first error encountered during iteration.
func (it *Iterator[T]) Err() error { return it.err }
