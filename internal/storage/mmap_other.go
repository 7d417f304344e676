//go:build !unix

package storage

import (
	"io"
	"os"
)

// mapFile reads the first size bytes of f into memory: without mmap,
// an opened store copies its pages from one heap slice, so ReadPage
// has a single copy path on every OS.
func mapFile(f *os.File, size int64) ([]byte, error) {
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, err
	}
	return b, nil
}

// unmapFile releases what mapFile returned: the garbage collector does.
func unmapFile([]byte) error { return nil }
