//go:build unix

package storage

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only and shared, so the
// page cache serves reads with no syscall per page.
func mapFile(f *os.File, size int64) ([]byte, error) {
	if int64(int(size)) != size {
		return nil, fmt.Errorf("%d bytes do not fit the address space", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapFile releases a mapping mapFile made.
func unmapFile(b []byte) error {
	return syscall.Munmap(b)
}
