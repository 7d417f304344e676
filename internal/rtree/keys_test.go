package rtree

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/storage"
)

// TestKeyErrorRule: keyError, the rule PinnedNode.Decode holds every
// node to, accepts every entry whose bounds are ordered, infinite ones
// included, and rejects a NaN in any of the four coordinates and a
// lower bound above the upper on either axis, as ErrCorruptNode.
func TestKeyErrorRule(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	sound := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: -inf, MinY: -inf, MaxX: -inf, MaxY: -inf},
		{MinX: inf, MinY: inf, MaxX: inf, MaxY: inf},
		{MinX: -inf, MinY: 3, MaxX: inf, MaxY: 3},
	}
	if err := keyError(0, nodeOf(sound)); err != nil {
		t.Fatalf("sound entries rejected: %v", err)
	}
	if err := keyError(0, nodeOf(nil)); err != nil {
		t.Fatalf("empty node rejected: %v", err)
	}
	for _, bad := range []geom.Rect{
		{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 0, MinY: nan, MaxX: 1, MaxY: 1},
		{MinX: 0, MinY: 0, MaxX: nan, MaxY: 1},
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: nan},
		{MinX: 2, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 0, MinY: 2, MaxX: 1, MaxY: 1},
		{MinX: inf, MinY: 0, MaxX: -inf, MaxY: 1},
	} {
		for _, n := range []*NodeSoA{nodeOf([]geom.Rect{bad}), nodeOf(append(append([]geom.Rect(nil), sound...), bad))} {
			if err := keyError(0, n); !errors.Is(err, ErrCorruptNode) {
				t.Fatalf("%d entries ending in %v: error %v, want ErrCorruptNode", n.Len(), bad, err)
			}
		}
	}
}

// TestDecodeRejectsDamagedNodes: a page holding a NaN entry, an
// inverted entry, a header counting more entries than the page holds,
// no entries at all in a tree that holds objects, or, at an internal
// node, a child ref wider than a page ID is ErrCorruptNode from Decode
// and from Ordered in every slot, on a tree with room for finished
// nodes and on one without. A reader that publishes whatever node it
// was given (the join's pairSide.sorted) then leaves no memo cell and
// no occupancy grid for the page, while the sound pages it was made
// from, a leaf whose object ID is wider than a page ID, and the empty
// root of a tree of no objects read back whole and get both.
func TestDecodeRejectsDamagedNodes(t *testing.T) {
	const pageSize = 1024
	base := func() []encEntry {
		es := make([]encEntry, 6)
		for i := range es {
			x := float64(i)
			es[i] = encEntry{rect: geom.NewRect(x, 2*x, x+1, 2*x+3), ref: uint64(10 + i)}
		}
		return es
	}
	for _, tc := range []struct {
		name    string
		level   int
		damage  func(es []encEntry)
		corrupt bool
		header  func(page []byte) // rewrites the encoded page, if not nil
		// emptyTree: the tree's metadata counts no objects; otherwise it
		// counts the base entries.
		emptyTree bool
	}{
		{"sound leaf", 0, func([]encEntry) {}, false, nil, false},
		{"sound internal node", 1, func([]encEntry) {}, false, nil, false},
		{"leaf with an object id wider than a page id", 0, func(es []encEntry) { es[5].ref = 1<<40 | 7 }, false, nil, false},
		{"NaN MinY", 0, func(es []encEntry) { es[2].rect.MinY = math.NaN() }, true, nil, false},
		{"NaN MaxX at an internal node", 1, func(es []encEntry) { es[0].rect.MaxX = math.NaN() }, true, nil, false},
		{"MinX above MaxX", 0, func(es []encEntry) { es[4].rect.MinX = es[4].rect.MaxX + 1 }, true, nil, false},
		{"child ref wider than a page id", 2, func(es []encEntry) { es[5].ref |= 1 << 32 }, true, nil, false},
		{"count one past the capacity", 1, func([]encEntry) {}, true, func(page []byte) {
			binary.LittleEndian.PutUint16(page[2:], uint16(PageCapacity(len(page))+1))
		}, false},
		{"empty leaf of a non-empty tree", 0, func([]encEntry) {}, true, emptyPage, false},
		{"empty internal node of a non-empty tree", 1, func([]encEntry) {}, true, emptyPage, false},
		{"empty root of an empty tree", 0, func([]encEntry) {}, false, emptyPage, true},
	} {
		for _, poolPages := range []int{1, 8} { // no room for finished nodes, and room
			es := base()
			tc.damage(es)
			page := make([]byte, pageSize)
			if err := encodeNode(page, tc.level, es); err != nil {
				t.Fatal(err)
			}
			if tc.header != nil {
				tc.header(page)
			}
			store := storage.NewMemStore(pageSize)
			id, err := store.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := store.WritePage(id, page); err != nil {
				t.Fatal(err)
			}
			size := len(es)
			if tc.emptyTree {
				size = 0
			}
			entries := int(binary.LittleEndian.Uint16(page[2:]))
			tree := newTree(&Tree{rootPage: id, height: tc.level + 1, numNodes: 1, size: size}, store, poolPages*pageSize)
			check := func(what string, n *NodeSoA, err error) {
				t.Helper()
				switch {
				case tc.corrupt && !errors.Is(err, ErrCorruptNode):
					t.Fatalf("%s, %d-page pool: %s: error %v, want ErrCorruptNode", tc.name, poolPages, what, err)
				case !tc.corrupt && (err != nil || n.Len() != entries):
					t.Fatalf("%s, %d-page pool: %s: error %v, want the node's %d entries", tc.name, poolPages, what, err, entries)
				}
			}
			pin, err := tree.PinNode(id, tc.level, nil)
			if err != nil {
				t.Fatal(err)
			}
			var scratch NodeSoA
			err = pin.Decode(&scratch)
			check("Decode", &scratch, err)
			if err == nil {
				pin.PublishGrid(&scratch)
			}
			for slot := 0; slot < SweepSlots; slot++ {
				n, _, err := pin.Ordered(slot, &scratch)
				check("Ordered", n, err)
				if err == nil {
					pin.Publish(slot, nil, n)
				}
			}
			pin.Release()

			cells := 0
			for slot := 0; slot < SweepSlots; slot++ {
				if tree.orderSlot(id, slot).Load() != nil {
					cells++
				}
			}
			grid := tree.grids[id].state.Load() != gridAbsent
			wantCells := 0
			if !tc.corrupt && poolPages > 1 {
				wantCells = SweepSlots
			}
			if cells != wantCells || grid == tc.corrupt {
				t.Fatalf("%s, %d-page pool: %d memo cells and grid %v, want %d and %v",
					tc.name, poolPages, cells, grid, wantCells, !tc.corrupt)
			}
		}
	}
}

// emptyPage rewrites a node page's header to count no entries.
func emptyPage(page []byte) { binary.LittleEndian.PutUint16(page[2:], 0) }
