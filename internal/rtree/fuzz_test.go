package rtree

import (
	"errors"
	"math"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/storage"
)

// sameEntry fails unless entry gi of got and entry wi of want agree in
// all four coordinates bit for bit (NaN payloads included) and the ref.
func sameEntry(t *testing.T, what string, got *NodeSoA, gi int, want *NodeSoA, wi int) {
	t.Helper()
	g := [4]float64{got.MinX[gi], got.MinY[gi], got.MaxX[gi], got.MaxY[gi]}
	w := [4]float64{want.MinX[wi], want.MinY[wi], want.MaxX[wi], want.MaxY[wi]}
	for c := range g {
		if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
			t.Fatalf("%s: entry %d column %d = %v, want entry %d's %v", what, gi, c, g[c], wi, w[c])
		}
	}
	if got.Refs[gi] != want.Refs[wi] {
		t.Fatalf("%s: entry %d ref %d, want entry %d's %d", what, gi, got.Refs[gi], wi, want.Refs[wi])
	}
}

// FuzzDecodeNode feeds arbitrary page bytes to the two decoders every
// query runs. decodeNodeSoA never panics, never yields more entries than
// the page can hold, keeps its columns the same length, and whatever it
// decodes with valid rectangles re-encodes to the same bits.
// decodeOrdered is reached the way a join reaches it, through
// PublishSweepOrder, PinNode and Ordered on a one-page tree whose pool
// leaves no room for finished nodes: a permutation derived from the
// input's tail yields exactly decodeNodeSoA's entries reordered, and a
// variant of the wrong length or with an index out of range is ignored,
// leaving the checked page-order decode (PinnedNode.Decode).
func FuzzDecodeNode(f *testing.F) {
	page := make([]byte, 256)
	entries := []encEntry{{rect: geom.NewRect(1, 2, 3, 4), ref: 7}}
	if err := encodeNode(page, 2, entries); err != nil {
		f.Fatal(err)
	}
	f.Add(page)
	f.Add(make([]byte, 256))
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		var n NodeSoA
		if err := decodeNodeSoA(data, &n); err != nil {
			return
		}
		count := n.Len()
		if count > PageCapacity(len(data)) {
			t.Fatalf("decoded %d entries beyond capacity %d", count, PageCapacity(len(data)))
		}
		if len(n.MinX) != count || len(n.MinY) != count || len(n.MaxX) != count || len(n.MaxY) != count {
			t.Fatalf("columns of %d, %d, %d, %d coordinates for %d refs",
				len(n.MinX), len(n.MinY), len(n.MaxX), len(n.MaxY), count)
		}
		fuzzOrderedRead(t, data, &n)

		encs := make([]encEntry, count)
		for i := range encs {
			encs[i] = encEntry{rect: n.Rect(i), ref: n.Refs[i]}
			if !encs[i].rect.Valid() {
				return // NaN/inverted rects can round-trip bitwise but not semantically
			}
		}
		out := make([]byte, len(data))
		if err := encodeNode(out, n.Level, encs); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var again NodeSoA
		if err := decodeNodeSoA(out, &again); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Level != n.Level || again.Len() != count {
			t.Fatalf("round trip: level/len (%d,%d), want (%d,%d)", again.Level, again.Len(), n.Level, count)
		}
		for i := 0; i < count; i++ {
			sameEntry(t, "round trip", &again, i, &n, i)
		}
	})
}

// fuzzOrderedRead checks the pinned reads of data, on a tree whose only
// page is data, against want, its unchecked page-order decode: PinNode
// refuses any level but the one the header claims, a fitting
// permutation replays want's entries reordered, and past one that does
// not fit Ordered returns want itself, or ErrCorruptNode when want has
// a rectangle that is not Valid or is an internal node with a child ref
// wider than a page ID.
func fuzzOrderedRead(t *testing.T, data []byte, want *NodeSoA) {
	store := storage.NewMemStore(len(data))
	id, err := store.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	tree := newTree(&Tree{rootPage: id, height: 1, numNodes: 1}, store, len(data))
	count := want.Len()
	tail := func(k int) int { return int(data[len(data)-1-k%len(data)]) }

	// A fitting permutation: Fisher-Yates steered by the tail bytes.
	perm := make([]uint16, count)
	for i := range perm {
		perm[i] = uint16(i)
	}
	for i := count - 1; i > 0; i-- {
		j := tail(i) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if _, err := tree.PinNode(id, want.Level+1, nil); !errors.Is(err, ErrCorruptNode) {
		t.Fatalf("pinning a level-%d page as level %d: error %v, want ErrCorruptNode", want.Level, want.Level+1, err)
	}
	var got NodeSoA
	read := func(slot int) (*NodeSoA, bool, error) {
		pin, err := tree.PinNode(id, want.Level, nil)
		if err != nil {
			t.Fatalf("pinning the page at the level it claims: %v", err)
		}
		defer pin.Release()
		return pin.Ordered(slot, &got)
	}
	tree.PublishSweepOrder(id, 0, perm, want)
	node, ordered, err := read(0)
	if err != nil || !ordered || node != &got || got.Level != want.Level || got.Len() != count {
		t.Fatalf("through a fitting permutation: own=%v ordered=%v err=%v level/len (%d,%d), want (%d,%d)",
			node == &got, ordered, err, got.Level, got.Len(), want.Level, count)
	}
	for i, src := range perm {
		sameEntry(t, "through a fitting permutation", &got, i, want, int(src))
	}

	// A permutation that does not fit, in another slot: one entry too
	// many, or (when there is an entry to spoil) an index past the end.
	bad := append(append([]uint16(nil), perm...), uint16(count))
	if count > 0 && tail(0)&1 == 1 {
		bad = bad[:count]
		bad[tail(1)%count] = uint16(count)
	}
	var decoy NodeSoA
	decoy.Reset(len(bad))
	tree.PublishSweepOrder(id, 1, bad, &decoy)
	got.Reset(0)
	node, ordered, err = read(1)
	if !soundNode(want) {
		if !errors.Is(err, ErrCorruptNode) {
			t.Fatalf("past a permutation that does not fit, a damaged node: error %v, want ErrCorruptNode", err)
		}
		return
	}
	if err != nil || ordered != (count < 2) || node != &got || got.Level != want.Level || got.Len() != count {
		t.Fatalf("past a permutation that does not fit: own=%v ordered=%v err=%v level/len (%d,%d), want page order (%d,%d)",
			node == &got, ordered, err, got.Level, got.Len(), want.Level, count)
	}
	for i := 0; i < count; i++ {
		sameEntry(t, "past a permutation that does not fit", &got, i, want, i)
	}
}

// soundNode reports whether a checked read may return n: every
// rectangle is Valid, and an internal node's refs are page IDs.
func soundNode(n *NodeSoA) bool {
	for i := 0; i < n.Len(); i++ {
		if !n.Rect(i).Valid() || n.Level > 0 && n.Refs[i] > math.MaxUint32 {
			return false
		}
	}
	return true
}
