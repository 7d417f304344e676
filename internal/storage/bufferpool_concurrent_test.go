package storage

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// TestBufferPoolConcurrentReads hammers a small shared pool from many
// goroutines with a working set far larger than the frame capacity, so
// every goroutine constantly evicts frames other goroutines just
// fetched. This is the access pattern of concurrent queries (read-only
// R-tree pages through a shared pool) and must be race-free with every
// returned page intact. Run under -race for full value.
func TestBufferPoolConcurrentReads(t *testing.T) {
	const (
		pageSize = 512
		pages    = 64
		workers  = 8
		rounds   = 400
	)
	store := NewMemStore(pageSize)
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := store.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, pageSize)
		for off := 0; off < pageSize; off += 8 {
			binary.LittleEndian.PutUint64(buf[off:], uint64(id)^uint64(off))
		}
		if err := store.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	// 4 frames: heavy eviction churn.
	pool := NewBufferPool(store, 4*pageSize)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := ids[(seed*31+r*17)%pages]
				data, _, err := pool.Get(id)
				if err != nil {
					errs <- err
					return
				}
				for off := 0; off < pageSize; off += 8 {
					if got := binary.LittleEndian.Uint64(data[off:]); got != uint64(id)^uint64(off) {
						t.Errorf("page %d corrupted at offset %d: %x", id, off, got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Hits+st.Misses != int64(workers*rounds) {
		t.Fatalf("stats lost accesses: hits=%d misses=%d want total %d", st.Hits, st.Misses, workers*rounds)
	}
}

// TestBufferPoolConcurrentPinnedReads is TestBufferPoolConcurrentReads
// over a FileStore, whose evicted frames the pool reads the next miss
// into. Each goroutine holds two pins at once across a yield while the
// others evict, so pinned pages are evicted under their readers, and
// checks every byte before and after: a recycled frame still pinned
// would show another page. A Get now and then mixes in frames that are
// never recycled. Run under -race for full value.
func TestBufferPoolConcurrentPinnedReads(t *testing.T) {
	const (
		pageSize = 512
		pages    = 64
		workers  = 8
		rounds   = 400
	)
	store, err := CreateFileStore(filepath.Join(t.TempDir(), "pages.db"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < pages; i++ {
		id, err := store.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, pageSize)
		for off := 0; off < pageSize; off += 8 {
			binary.LittleEndian.PutUint64(buf[off:], uint64(id)^uint64(off))
		}
		if err := store.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	intact := func(id PageID, data []byte) error {
		for off := 0; off < pageSize; off += 8 {
			if got := binary.LittleEndian.Uint64(data[off:]); got != uint64(id)^uint64(off) {
				return fmt.Errorf("page %d corrupted at offset %d: %x", id, off, got)
			}
		}
		return nil
	}

	pool := NewBufferPool(store, 4*pageSize)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ids := [2]PageID{PageID((seed*31 + r*17) % pages), PageID((seed*7 + r*13 + 1) % pages)}
				if r%8 == 0 {
					data, _, err := pool.Get(ids[0])
					if err == nil {
						err = intact(ids[0], data)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				var held [2]*Frame
				for i, id := range ids {
					f, _, err := pool.Pin(id)
					if err == nil {
						err = intact(id, f.Bytes())
					}
					if err != nil {
						errs <- err
						return
					}
					held[i] = f
				}
				runtime.Gosched()
				for i, f := range held {
					if err := intact(ids[i], f.Bytes()); err != nil {
						errs <- fmt.Errorf("after a yield: %w", err)
						return
					}
					f.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pool.Stats()
	if want := int64(workers * (rounds*2 + rounds/8)); st.Hits+st.Misses != want {
		t.Fatalf("stats lost accesses: hits=%d misses=%d want total %d", st.Hits, st.Misses, want)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions: the test exercised nothing")
	}
}
