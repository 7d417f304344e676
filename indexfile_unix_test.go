//go:build unix

package distjoin

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestTruncatedIndexFileFailsClosed: two index files opened with
// four-frame pools and then truncated to nothing. A join's next miss
// faults on the mapped file; every algorithm must return an error
// wrapping io.EOF, not panic, and the process goes on.
func TestTruncatedIndexFileFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	dir := t.TempDir()
	var idx [2]*Index
	for side := range idx {
		path := filepath.Join(dir, fmt.Sprintf("side%d.rtree", side))
		if _, err := CreateIndexFile(path, randObjects(rng, 700, 2000, 10), nil); err != nil {
			t.Fatal(err)
		}
		var err error
		if idx[side], err = OpenIndexFile(path, &IndexConfig{BufferBytes: 4 * 4096}); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, algo := range []Algorithm{AMKDJ, BKDJ, HSKDJ} {
		got, err := KDistanceJoin(idx[0], idx[1], 80, &Options{Algorithm: algo})
		if !errors.Is(err, io.EOF) {
			t.Fatalf("%v on truncated files: %d pairs, error %v, want one wrapping io.EOF", algo, len(got), err)
		}
	}
}
