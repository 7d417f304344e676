//go:build unix

package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenedStoreTruncatedAfterOpen: a page that lies wholly past the
// end of a file truncated after open is an error wrapping io.EOF, as a
// short pread is, and the process survives the fault. The OS page that
// holds the new end reads as zeros past it: the limit FileStore's doc
// states.
func TestOpenedStoreTruncatedAfterOpen(t *testing.T) {
	const pageSize = DefaultPageSize
	osPage := os.Getpagesize()
	perOSPage := max(1, osPage/pageSize)
	pages := 4 * perOSPage
	path := filepath.Join(t.TempDir(), "pages.db")
	all := createRandomFile(t, path, pageSize, pages)
	s, err := OpenFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cut := int64(perOSPage*pageSize + 100)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	mappedEnd := (cut + int64(osPage) - 1) / int64(osPage) * int64(osPage)
	buf := make([]byte, pageSize)
	faults := 0
	for id := 0; id < pages; id++ {
		start := int64(id * pageSize)
		err := s.ReadPage(PageID(id), buf)
		if start >= mappedEnd {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("page %d past the new end: %v, want io.EOF", id, err)
			}
			faults++
			continue
		}
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		want := bytes.Clone(all[start : start+pageSize])
		for i := range want {
			if start+int64(i) >= cut {
				want[i] = 0
			}
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("page %d: want the file's bytes up to the cut, zeros after", id)
		}
	}
	if faults == 0 {
		t.Fatal("no page lay past the new end: the test exercised nothing")
	}
	if st := s.Stats(); st.Reads != int64(pages-faults) {
		t.Fatalf("%d reads counted, want %d: a failed read counts none", st.Reads, pages-faults)
	}
}
