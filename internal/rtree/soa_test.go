package rtree

import (
	"errors"
	"math/rand"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/storage"
)

// randomNodePage encodes a node with n random entries at the given
// level into a fresh page and returns the entries with it.
func randomNodePage(t testing.TB, rng *rand.Rand, pageSize, level, n int) ([]byte, []encEntry) {
	t.Helper()
	page := make([]byte, pageSize)
	entries := make([]encEntry, n)
	for i := range entries {
		x, y := rng.Float64()*100, rng.Float64()*100
		entries[i] = encEntry{
			rect: geom.NewRect(x, y, x+rng.Float64()*5, y+rng.Float64()*5),
			ref:  rng.Uint64(),
		}
	}
	if err := encodeNode(page, level, entries); err != nil {
		t.Fatal(err)
	}
	return page, entries
}

// TestDecodeNodeSoAMatchesDecodeNode pins the decoder against what the
// encoder was given (the row-major decoder it is named for is gone):
// level, count, every MBR, and every ref must agree entry-for-entry.
// The SoA buffer is reused across decodes of different sizes — growing
// and shrinking — because that is exactly how the join expander uses it.
func TestDecodeNodeSoAMatchesDecodeNode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const pageSize = 1024
	var soa NodeSoA
	for _, n := range []int{0, 1, 3, 17, PageCapacity(pageSize), 2, 5} {
		page, entries := randomNodePage(t, rng, pageSize, n%3, n)
		if err := decodeNodeSoA(page, &soa); err != nil {
			t.Fatalf("n=%d: decodeNodeSoA: %v", n, err)
		}
		if soa.Level != n%3 || soa.Len() != n {
			t.Fatalf("n=%d: level/len (%d,%d), encoded (%d,%d)", n, soa.Level, soa.Len(), n%3, n)
		}
		if soa.IsLeaf() != (n%3 == 0) {
			t.Fatalf("n=%d: IsLeaf mismatch", n)
		}
		for i, e := range entries {
			if soa.Rect(i) != e.rect || soa.Refs[i] != e.ref {
				t.Fatalf("n=%d entry %d: decoded %v %d, encoded %+v", n, i, soa.Rect(i), soa.Refs[i], e)
			}
		}
	}
}

// TestDecodeNodeSoAWarmNoAllocs pins the reuse contract: once the SoA
// buffer has grown to a node's size, re-decoding allocates nothing.
func TestDecodeNodeSoAWarmNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	page, _ := randomNodePage(t, rng, 1024, 0, 20)
	var soa NodeSoA
	if err := decodeNodeSoA(page, &soa); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := decodeNodeSoA(page, &soa); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm decodeNodeSoA allocates %v per call, want 0", avg)
	}
}

// BenchmarkDecodeNode isolates node decode on a full 4 KB page (102
// entries) into a warm NodeSoA: in page order (decodeNodeSoA), and
// through a random permutation in both forms a memoized sweep order
// takes, narrow (uint8) and wide (uint16).
func BenchmarkDecodeNode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := PageCapacity(storage.DefaultPageSize)
	page, _ := randomNodePage(b, rng, storage.DefaultPageSize, 0, n)
	narrow, wide := make([]uint8, n), make([]uint16, n)
	for i, p := range rng.Perm(n) {
		narrow[i], wide[i] = uint8(p), uint16(p)
	}
	var dst NodeSoA
	dst.Reset(n)
	b.Run("page-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := decodeNodeSoA(page, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perm-narrow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decodeOrdered(page, &dst, narrow)
		}
	})
	b.Run("perm-wide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decodeOrdered(page, &dst, wide)
		}
	})
}

// TestDecodeNodeSoARejectsCorruptPages: truncated and count-corrupted
// pages are ErrCorruptNode.
func TestDecodeNodeSoARejectsCorruptPages(t *testing.T) {
	var soa NodeSoA
	if err := decodeNodeSoA([]byte{1, 2}, &soa); !errors.Is(err, ErrCorruptNode) {
		t.Errorf("short page: error %v, want ErrCorruptNode", err)
	}
	page := make([]byte, 256)
	page[2] = 0xff // count field far beyond capacity
	page[3] = 0xff
	if err := decodeNodeSoA(page, &soa); !errors.Is(err, ErrCorruptNode) {
		t.Errorf("corrupt count: error %v, want ErrCorruptNode", err)
	}
}

// TestNodeSoASetSingleAndSwap covers the two mutators the join uses:
// the singleton object side and the sweep sorter's column-lockstep
// swap.
func TestNodeSoASetSingleAndSwap(t *testing.T) {
	var soa NodeSoA
	r := geom.NewRect(1, 2, 3, 4)
	soa.SetSingle(r, 42)
	if soa.Len() != 1 || !soa.IsLeaf() || soa.Rect(0) != r || soa.Refs[0] != 42 {
		t.Fatalf("SetSingle: %+v", soa)
	}
	soa.Reset(2)
	soa.MinX[0], soa.MinY[0], soa.MaxX[0], soa.MaxY[0], soa.Refs[0] = 1, 2, 3, 4, 10
	soa.MinX[1], soa.MinY[1], soa.MaxX[1], soa.MaxY[1], soa.Refs[1] = 5, 6, 7, 8, 11
	soa.Swap(0, 1)
	if soa.Rect(0) != geom.NewRect(5, 6, 7, 8) || soa.Refs[0] != 11 ||
		soa.Rect(1) != geom.NewRect(1, 2, 3, 4) || soa.Refs[1] != 10 {
		t.Fatalf("Swap left columns out of lockstep: %+v", soa)
	}
	if soa.Lo(0)[0] != 5 || soa.Hi(0)[0] != 7 || soa.Lo(1)[0] != 6 || soa.Hi(1)[0] != 8 {
		t.Fatalf("Lo/Hi columns wrong after swap")
	}
}
