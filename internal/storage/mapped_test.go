package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// createRandomFile writes a store of n pages of random bytes at path
// and returns the bytes written.
func createRandomFile(t testing.TB, path string, pageSize, n int) []byte {
	t.Helper()
	s, err := CreateFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]byte, n*pageSize)
	rand.New(rand.NewSource(int64(n))).Read(all)
	for i := 0; i < n; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(id, all[i*pageSize:(i+1)*pageSize]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return all
}

// TestOpenedStoreMatchesPread: every page an opened store copies from
// its mapping is byte-equal to a pread of the same page, and each is
// one counted read.
func TestOpenedStoreMatchesPread(t *testing.T) {
	for _, pageSize := range []int{256, DefaultPageSize} {
		const pages = 37
		path := filepath.Join(t.TempDir(), "pages.db")
		createRandomFile(t, path, pageSize, pages)
		s, err := OpenFileStore(path, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, want := make([]byte, pageSize), make([]byte, pageSize)
		for id := PageID(0); id < pages; id++ {
			if err := s.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if _, err := f.ReadAt(want, int64(id)*int64(pageSize)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("page size %d: page %d differs from a pread of it", pageSize, id)
			}
		}
		if err := s.ReadPage(pages, got); !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("page size %d: reading past the last page: %v, want ErrPageOutOfRange", pageSize, err)
		}
		if st := s.Stats(); st.Reads != pages {
			t.Fatalf("page size %d: %d reads counted, want %d", pageSize, st.Reads, pages)
		}
		f.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenedStoreClose: Close releases the mapping under the store's
// mutex; a read afterwards is ErrClosed, and a second Close is nil. An
// empty file opens, with no mapping and no page to read.
func TestOpenedStoreClose(t *testing.T) {
	const pageSize = 256
	path := filepath.Join(t.TempDir(), "pages.db")
	createRandomFile(t, path, pageSize, 3)
	s, err := OpenFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	if err := s.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.mapped != nil {
		t.Fatal("Close kept the mapping")
	}
	if err := s.ReadPage(2, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	empty := filepath.Join(t.TempDir(), "empty.db")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := OpenFileStore(empty, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumPages() != 0 || e.mapped != nil {
		t.Fatalf("empty file: %d pages, mapping %v", e.NumPages(), e.mapped != nil)
	}
	if err := e.ReadPage(0, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("empty file: read: %v, want ErrPageOutOfRange", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPinnedReadsRaceClose: goroutines pin pages of an opened
// store through a shared pool while another closes the store. Every pin
// either returns the page as written or fails with ErrClosed; none
// reads an unmapped page. Run under -race for full value.
func TestConcurrentPinnedReadsRaceClose(t *testing.T) {
	const pageSize, pages, workers = 512, 32, 6
	path := filepath.Join(t.TempDir(), "pages.db")
	for round := 0; round < 20; round++ {
		all := createRandomFile(t, path, pageSize, pages)
		s, err := OpenFileStore(path, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		pool := NewBufferPool(s, 4*pageSize)
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				<-start
				for r := 0; ; r++ {
					id := PageID((seed*7 + r*5) % pages)
					f, _, err := pool.Pin(id)
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						errs <- err
						return
					}
					same := bytes.Equal(f.Bytes(), all[int(id)*pageSize:int(id+1)*pageSize])
					f.Release()
					if !same {
						errs <- fmt.Errorf("pinned page %d differs from what was written", id)
						return
					}
				}
			}(w)
		}
		close(start)
		runtime.Gosched()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestDroppedOpenedStoresUnmap: an opened store nobody holds is
// unmapped once the garbage collector finds it, so opening and dropping
// stores leaves no mapping of the file behind. Skipped where
// /proc/self/maps does not exist.
func TestDroppedOpenedStoresUnmap(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps")
	}
	const pageSize = 512
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "pages.db")
	createRandomFile(t, path, pageSize, 4)
	mappings := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, line := range bytes.Split(maps, []byte{'\n'}) {
			if bytes.HasSuffix(line, []byte(path)) {
				n++
			}
		}
		return n
	}
	buf := make([]byte, pageSize)
	for i := 0; i < 200; i++ {
		s, err := OpenFileStore(path, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReadPage(PageID(i%4), buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 && mappings() != 1 {
			t.Fatalf("an opened store maps the file %d times, want once", mappings())
		}
		if i%20 == 19 {
			runtime.GC()
		}
	}
	// Finalizers run on their own goroutine after the collection that
	// finds their object unreachable.
	n := mappings()
	for try := 0; try < 200 && n > 0; try++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		n = mappings()
	}
	if n != 0 {
		t.Fatalf("%d mappings of the file left after dropping 200 opened stores", n)
	}
}
