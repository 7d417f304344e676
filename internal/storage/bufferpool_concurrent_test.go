package storage

import (
	"encoding/binary"
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
