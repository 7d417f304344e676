package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func testStoreBasics(t *testing.T, s Store) {
	t.Helper()
	ps := s.PageSize()
	if s.NumPages() != 0 {
		t.Fatalf("fresh store has %d pages", s.NumPages())
	}
	id0, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d,%d, want 0,1", id0, id1)
	}
	if s.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", s.NumPages())
	}

	buf := make([]byte, ps)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := s.WritePage(id1, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ps)
	if err := s.ReadPage(id1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("read-back mismatch")
	}
	// Fresh page is zeroed.
	if err := s.ReadPage(id0, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("alloc'd page not zeroed")
		}
	}

	// Error cases.
	if err := s.ReadPage(99, got); err == nil {
		t.Fatal("out-of-range read must fail")
	}
	if err := s.WritePage(99, buf); err == nil {
		t.Fatal("out-of-range write must fail")
	}
	if err := s.ReadPage(id0, make([]byte, ps-1)); !errors.Is(err, ErrBadPageSize) {
		t.Fatalf("short buffer read: %v", err)
	}
	if err := s.WritePage(id0, make([]byte, ps+1)); !errors.Is(err, ErrBadPageSize) {
		t.Fatalf("long buffer write: %v", err)
	}

	st := s.Stats()
	if st.Allocs != 2 || st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc after close: %v", err)
	}
	if err := s.ReadPage(id0, got); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestMemStore(t *testing.T) {
	testStoreBasics(t, NewMemStore(512))
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := CreateFileStore(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	testStoreBasics(t, s)
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := CreateFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 256)
	if err := s.WritePage(id, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d, want 1", s2.NumPages())
	}
	got := make([]byte, 256)
	if err := s2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("reopened page mismatch")
	}
}

func TestOpenFileStoreBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := CreateFileStore(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenFileStore(path, 256); err == nil {
		t.Fatal("opening with mismatched page size must fail")
	}
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "missing"), 256); err == nil {
		t.Fatal("opening missing file must fail")
	}
}

// TestOpenFileStoreReadOnly: an opened store is read-only, whatever
// the process may do to the file. Pages read as written, through a pool
// too, and Alloc and WritePage fail with ErrReadOnly. A file that does
// not open is an error that names the path once.
func TestOpenFileStoreReadOnly(t *testing.T) {
	const pageSize = 256
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := CreateFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if ro.NumPages() != 3 {
		t.Fatalf("%d pages, want 3", ro.NumPages())
	}
	data, _, err := NewBufferPool(ro, pageSize).Get(2)
	if err != nil || !bytes.Equal(data, bytes.Repeat([]byte{3}, pageSize)) {
		t.Fatalf("page 2 through a pool: err %v", err)
	}
	if _, err := ro.Alloc(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Alloc: %v, want ErrReadOnly", err)
	}
	if err := ro.WritePage(0, make([]byte, pageSize)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WritePage: %v, want ErrReadOnly", err)
	}
	if ro.NumPages() != 3 || ro.Stats().Writes != 0 || ro.Stats().Allocs != 0 {
		t.Fatalf("a refused write changed the store: %d pages, %+v", ro.NumPages(), ro.Stats())
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	missing := filepath.Join(t.TempDir(), "missing")
	_, err = OpenFileStore(missing, pageSize)
	if err == nil {
		t.Fatal("a missing file opened")
	}
	if n := strings.Count(err.Error(), missing); n != 1 {
		t.Fatalf("%q names the path %d times, want once", err, n)
	}
}

func TestDefaultPageSizeApplied(t *testing.T) {
	s := NewMemStore(0)
	if s.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d, want %d", s.PageSize(), DefaultPageSize)
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	s := NewMemStore(128)
	p := NewBufferPool(s, 2*128) // two frames
	ids := make([]PageID, 3)
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		buf := bytes.Repeat([]byte{byte(i + 1)}, 128)
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}

	if _, acc, err := p.Get(ids[0]); err != nil || acc.Hit {
		t.Fatalf("first get: hit=%v err=%v", acc.Hit, err)
	}
	if _, acc, err := p.Get(ids[0]); err != nil || !acc.Hit {
		t.Fatalf("second get must hit: hit=%v err=%v", acc.Hit, err)
	}
	if _, _, err := p.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
	// Pool is full (0,1). Getting 2 evicts LRU = 0.
	if _, acc, err := p.Get(ids[2]); err != nil || acc.Evictions != 1 {
		t.Fatalf("third page: evictions=%d err=%v", acc.Evictions, err)
	}
	if _, acc, err := p.Get(ids[0]); err != nil || acc.Hit {
		t.Fatalf("page 0 should have been evicted; hit=%v err=%v", acc.Hit, err)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Invalidate is all there is to flushing a read-only pool: it holds no
// frame its store does not.
func TestBufferPoolFlushAndInvalidate(t *testing.T) {
	s := NewMemStore(64)
	p := NewBufferPool(s, 4*64)
	id, _ := s.Alloc()
	if _, _, err := p.Get(id); err != nil {
		t.Fatal(err)
	}
	if _, acc, _ := p.Get(id); !acc.Hit {
		t.Fatal("second get must hit")
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if _, acc, _ := p.Get(id); acc.Hit {
		t.Fatal("invalidate must drop cached frames")
	}
}

func TestBufferPoolMinimumOneFrame(t *testing.T) {
	s := NewMemStore(4096)
	p := NewBufferPool(s, 10) // less than one page
	if p.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1", p.Frames())
	}
	if p.PageSize() != 4096 || p.Store() != Store(s) {
		t.Fatal("accessors mismatch")
	}
}
