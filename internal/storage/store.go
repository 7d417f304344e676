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
	"os"
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
type FileStore struct {
	mu       sync.Mutex
	pageSize int
	f        *os.File
	numPages int
	stats    StoreStats
	closed   bool
}

// CreateFileStore creates (truncating) a file-backed store at path.
func CreateFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	return &FileStore{pageSize: pageSize, f: f}, nil
}

// OpenFileStore opens an existing file-backed store at path. The file
// length must be a multiple of pageSize.
func OpenFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if fi.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s: size %d not a multiple of page size %d",
			path, fi.Size(), pageSize)
	}
	return &FileStore{
		pageSize: pageSize,
		f:        f,
		numPages: int(fi.Size() / int64(pageSize)),
	}, nil
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
	if _, err := s.f.ReadAt(buf, int64(id)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	s.stats.Reads++
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
	return s.f.Close()
}
