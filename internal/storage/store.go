// Package storage provides the paged storage substrate shared by the
// R-tree, the hybrid memory/disk queue, and the external sorter: a page
// store abstraction with memory- and file-backed implementations, and
// an LRU buffer pool with hit/miss accounting.
//
// The page size defaults to 4 KB, matching the paper's experimental
// settings (§5.1), and all I/O statistics needed to reproduce Table 2
// and the response-time figures are collected here.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
)

// DefaultPageSize is the page size used throughout the paper's
// experiments.
const DefaultPageSize = 4096

// PageID identifies a page within a Store. Valid IDs start at 0.
type PageID uint32

// InvalidPage is a sentinel for "no page".
const InvalidPage = PageID(^uint32(0))

// Common storage errors.
var (
	ErrPageOutOfRange = errors.New("storage: page id out of range")
	ErrBadPageSize    = errors.New("storage: buffer size does not match page size")
	ErrClosed         = errors.New("storage: store is closed")
	ErrReadOnly       = errors.New("storage: store is read-only")
)

// Store is a flat array of fixed-size pages. Implementations must be
// safe for concurrent use.
type Store interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Alloc appends a zeroed page and returns its ID.
	Alloc() (PageID, error)
	// ReadPage copies page id into buf, which must be PageSize() long.
	// A BufferPool reads through it on a miss, except over a MemStore,
	// which lends the pool its page instead of copying it.
	ReadPage(id PageID, buf []byte) error
	// WritePage copies buf, which must be PageSize() long, into page id.
	WritePage(id PageID, buf []byte) error
	// Stats returns cumulative physical I/O counts.
	Stats() StoreStats
	// Close releases resources. Further operations fail with ErrClosed.
	Close() error
}

// StoreStats counts physical page operations against a Store.
type StoreStats struct {
	Reads  int64
	Writes int64
	Allocs int64
}

// MemStore is an in-memory Store. It is the default backing for
// simulated experiments: physically "on disk" pages are still counted
// (so I/O cost models apply) without touching the file system.
//
// A BufferPool over a MemStore does not copy a page on a miss: the
// store lends the pool the page itself (lend), counted as one read.
// From the first lend on, WritePage is copy-on-write: it installs a
// fresh slice for the page instead of writing into the old one, so a
// lent slice never changes, and a pool that reads the page afterwards
// gets the new bytes. Stores that are never read through a pool (spill
// stores) keep writing in place.
type MemStore struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
	stats    StoreStats
	closed   bool
	lent     bool // some page has been lent: writes replace, never overwrite
}

// NewMemStore returns an empty in-memory store with the given page
// size (DefaultPageSize if pageSize <= 0).
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemStore{pageSize: pageSize}
}

// PageSize implements Store.
func (s *MemStore) PageSize() int { return s.pageSize }

// NumPages implements Store.
func (s *MemStore) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// Alloc implements Store.
func (s *MemStore) Alloc() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return InvalidPage, ErrClosed
	}
	s.pages = append(s.pages, make([]byte, s.pageSize))
	s.stats.Allocs++
	return PageID(len(s.pages) - 1), nil
}

// check returns nil if page id may be read or written; s.mu is held.
func (s *MemStore) check(id PageID) error {
	if s.closed {
		return ErrClosed
	}
	if int(id) >= len(s.pages) {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, len(s.pages))
	}
	return nil
}

// ReadPage implements Store.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	if len(buf) != s.pageSize {
		return ErrBadPageSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(id); err != nil {
		return err
	}
	copy(buf, s.pages[id])
	s.stats.Reads++
	return nil
}

// lend is ReadPage without the copy: it returns page id itself, capped
// at the page size, and counts one read. The slice never changes
// afterwards (see MemStore), so a BufferPool keeps it as its frame.
func (s *MemStore) lend(id PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(id); err != nil {
		return nil, err
	}
	s.lent = true
	s.stats.Reads++
	return s.pages[id][:s.pageSize:s.pageSize], nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	if len(buf) != s.pageSize {
		return ErrBadPageSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(id); err != nil {
		return err
	}
	if s.lent {
		s.pages[id] = append(make([]byte, 0, s.pageSize), buf...)
	} else {
		copy(s.pages[id], buf)
	}
	s.stats.Writes++
	return nil
}

// Stats implements Store.
func (s *MemStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.pages = nil
	return nil
}

// FileStore is a Store backed by a single OS file, for durable R-tree
// indexes built by cmd/distjoin-gen.
//
// A store CreateFileStore makes is the one writable kind: it reads and
// writes its pages with pread and pwrite. A store OpenFileStore opens
// is read-only and maps the file at open (PROT_READ, MAP_SHARED; where
// the OS has no mmap, the file is read into memory instead), and
// ReadPage copies the page from the mapping into the caller's buffer.
// Either way ReadPage is one counted read into a buffer the caller
// owns, so a BufferPool decides hit, miss and eviction as before; only
// where a miss's bytes come from differs.
//
// The copy runs under debug.SetPanicOnFault, so a fault on the mapping
// is an error, not a crash: a page that lies wholly past the end of a
// file truncated since open fails with an error wrapping io.EOF, as a
// short pread does. A truncation that ends inside an OS page
// (os.Getpagesize) zero-fills the rest of that OS page instead of
// faulting: the store pages in it read as zeros from the new end on,
// where a pread would have come up short. An in-place overwrite of the
// file shows in later reads, as it does under pread. The store cannot
// see either kind of damage; a page checksum would.
type FileStore struct {
	mu       sync.Mutex
	pageSize int
	f        *os.File
	numPages int
	stats    StoreStats
	closed   bool
	// readOnly marks a store OpenFileStore opened: its pages are read
	// from mapped, and Alloc and WritePage fail with ErrReadOnly.
	readOnly bool
	mapped   []byte // the file's bytes at open; nil if it was empty, or closed
}

// CreateFileStore creates (truncating) a file-backed store at path.
func CreateFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err) // err names the path
	}
	return &FileStore{pageSize: pageSize, f: f}, nil
}

// OpenFileStore opens an existing file-backed store at path, read-only:
// reads work, and Alloc and WritePage fail with ErrReadOnly. The file
// length must be a multiple of pageSize. The store maps the file until
// Close, or until the garbage collector finds the store unreachable.
func OpenFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err) // err names the path
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: %w", err)
	}
	if fi.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s: size %d not a multiple of page size %d",
			path, fi.Size(), pageSize)
	}
	var mapped []byte
	if fi.Size() > 0 {
		if mapped, err = mapFile(f, fi.Size()); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: map %s: %w", path, err)
		}
	}
	s := &FileStore{
		pageSize: pageSize,
		f:        f,
		numPages: int(fi.Size() / int64(pageSize)),
		readOnly: true,
		mapped:   mapped,
	}
	// A dropped store (distjoin.Index has no Close) still unmaps.
	runtime.SetFinalizer(s, (*FileStore).Close)
	return s, nil
}

// PageSize implements Store.
func (s *FileStore) PageSize() int { return s.pageSize }

// NumPages implements Store.
func (s *FileStore) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.numPages
}

// Alloc implements Store.
func (s *FileStore) Alloc() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return InvalidPage, ErrClosed
	}
	if s.readOnly {
		return InvalidPage, ErrReadOnly
	}
	id := PageID(s.numPages)
	zero := make([]byte, s.pageSize)
	if _, err := s.f.WriteAt(zero, int64(id)*int64(s.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("storage: alloc page %d: %w", id, err)
	}
	s.numPages++
	s.stats.Allocs++
	return id, nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	if len(buf) != s.pageSize {
		return ErrBadPageSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if int(id) >= s.numPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, s.numPages)
	}
	off := int64(id) * int64(s.pageSize)
	var err error
	if s.readOnly {
		err = s.copyMapped(buf, off)
	} else {
		_, err = s.f.ReadAt(buf, off)
	}
	if err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	s.stats.Reads++
	return nil
}

// copyMapped copies len(buf) bytes at offset off of the mapping into
// buf; s.mu is held, so Close cannot unmap meanwhile. A fault on the
// mapping is an error: io.EOF when the file now ends before the bytes
// do, the fault itself otherwise.
func (s *FileStore) copyMapped(buf []byte, off int64) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fault, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		if fi, serr := s.f.Stat(); serr == nil && fi.Size() < off+int64(len(buf)) {
			err = io.EOF
		} else {
			err = fmt.Errorf("fault at %#x reading the mapped file: %v", fault.Addr(), r)
		}
	}()
	copy(buf, s.mapped[off:off+int64(len(buf))])
	runtime.KeepAlive(s)
	return nil
}

// WritePage implements Store.
func (s *FileStore) WritePage(id PageID, buf []byte) error {
	if len(buf) != s.pageSize {
		return ErrBadPageSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.readOnly {
		return ErrReadOnly
	}
	if int(id) >= s.numPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, s.numPages)
	}
	if _, err := s.f.WriteAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	s.stats.Writes++
	return nil
}

// Stats implements Store.
func (s *FileStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	runtime.SetFinalizer(s, nil)
	var err error
	if s.mapped != nil {
		err = unmapFile(s.mapped)
		s.mapped = nil
	}
	return errors.Join(err, s.f.Close())
}
