package rtree

import (
	"errors"
	"math/rand"
	"testing"

	"distjoin/internal/storage"
)

// rewriteNode decodes page id of store, lets edit change the node, and
// writes it back.
func rewriteNode(t *testing.T, store storage.Store, id storage.PageID, edit func(n *NodeSoA)) {
	t.Helper()
	page := make([]byte, store.PageSize())
	if err := store.ReadPage(id, page); err != nil {
		t.Fatal(err)
	}
	var n NodeSoA
	if err := decodeNodeSoA(page, &n); err != nil {
		t.Fatal(err)
	}
	edit(&n)
	encs := make([]encEntry, n.Len())
	for i := range encs {
		encs[i] = encEntry{rect: n.Rect(i), ref: n.Refs[i]}
	}
	if err := encodeNode(page, n.Level, encs); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
}

// TestDescentRejectsDamagedRefs rewrites one page of a three-level tree
// at a time so that a child ref leads somewhere a child cannot be, and
// requires every descent to come back with a named error. A root that
// lists itself used to recurse until the runtime killed the process.
func TestDescentRejectsDamagedRefs(t *testing.T) {
	items := randItems(rand.New(rand.NewSource(5)), 200)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, store storage.Store, root, mid, leaf storage.PageID)
		want   error
	}{
		{"root lists itself", func(t *testing.T, store storage.Store, root, mid, leaf storage.PageID) {
			rewriteNode(t, store, root, func(n *NodeSoA) { n.Refs[0] = uint64(root) })
		}, ErrCorruptNode},
		{"root lists a leaf", func(t *testing.T, store storage.Store, root, mid, leaf storage.PageID) {
			rewriteNode(t, store, root, func(n *NodeSoA) { n.Refs[0] = uint64(leaf) })
		}, ErrCorruptNode},
		{"ref past the last page", func(t *testing.T, store storage.Store, root, mid, leaf storage.PageID) {
			rewriteNode(t, store, mid, func(n *NodeSoA) { n.Refs[0] = uint64(store.NumPages()) })
		}, storage.ErrPageOutOfRange},
		{"ref wider than a page id", func(t *testing.T, store storage.Store, root, mid, leaf storage.PageID) {
			rewriteNode(t, store, mid, func(n *NodeSoA) { n.Refs[0] = 1<<32 | uint64(leaf) })
		}, ErrCorruptNode},
		{"leaf claims level 1", func(t *testing.T, store storage.Store, root, mid, leaf storage.PageID) {
			rewriteNode(t, store, leaf, func(n *NodeSoA) { n.Level = 1 })
		}, ErrCorruptNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sound := packTestTree(t, items, 8, 1<<20)
			if sound.Height() != 3 {
				t.Fatalf("height %d, the fixture is meant to have three levels", sound.Height())
			}
			store := sound.Pool().Store()
			var n NodeSoA
			root := sound.Root()
			if err := sound.ReadNodeSoA(root, &n, nil); err != nil {
				t.Fatal(err)
			}
			mid := storage.PageID(n.Refs[0])
			if err := sound.ReadNodeSoA(mid, &n, nil); err != nil {
				t.Fatal(err)
			}
			leaf := storage.PageID(n.Refs[0])
			tc.damage(t, store, root, mid, leaf)

			tree, err := Open(store, 1<<20) // a cold pool: no page of the sound tree survives
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, tc.want) {
					t.Errorf("%s: error %v, want %v", what, err, tc.want)
				}
			}
			check("Walk", tree.Walk(func(storage.PageID, *NodeSoA) error { return nil }))
			check("Search", tree.Search(tree.Bounds(), nil, func(Item) bool { return true }))
			_, err = tree.NearestNeighbors(tree.Bounds(), tree.Size()+1, nil)
			check("NearestNeighbors", err)
		})
	}
}
