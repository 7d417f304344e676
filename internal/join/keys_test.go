package join

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// TestDamagedKeysFailClosed writes a NaN coordinate, or an inverted
// interval, into an entry of a packed tree's root page and reopens the
// store behind a cold pool: every join expands the root pair first,
// decodes the damaged node from page order there (the sweeping joins to
// sort it, the HS joins to pair its entries with the other root), and
// must return rtree.ErrCorruptNode and no pair. A one-object tree, whose
// root is a leaf of one entry that no sort would move, is held to the
// same rule. So are the single-tree descents, which read the root first
// (rtree.Tree.Search, NearestNeighbors). So is a tree whose metadata
// counts objects but whose root leaf holds none (corruptEmptyTree): read
// as an empty tree, it would answer every query with nothing and no
// error.
func TestDamagedKeysFailClosed(t *testing.T) {
	w := geom.NewRect(0, 0, 1000, 1000)
	many := datagen.Uniform(rand.New(rand.NewSource(3901)).Int63(), 300, w, 10)
	one := many[:1]
	const pageSize = 1024
	pack := func(items []rtree.Item) *storage.MemStore {
		store := storage.NewMemStore(pageSize)
		buildTreeOnStore(t, items, store)
		return store
	}
	// damaged packs items, lets damage rewrite the first entry's MBR
	// (MinX, MinY, MaxX, MaxY) in the root page and reopens the store.
	damaged := func(items []rtree.Item, damage func(mbr []float64)) *rtree.Tree {
		store := pack(items)
		tree, err := rtree.Open(store, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, pageSize)
		if err := store.ReadPage(tree.Root(), page); err != nil {
			t.Fatal(err)
		}
		const firstEntry = 8
		mbr := make([]float64, 4)
		for i := range mbr {
			mbr[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[firstEntry+8*i:]))
		}
		damage(mbr)
		for i, v := range mbr {
			binary.LittleEndian.PutUint64(page[firstEntry+8*i:], math.Float64bits(v))
		}
		if err := store.WritePage(tree.Root(), page); err != nil {
			t.Fatal(err)
		}
		if tree, err = rtree.Open(store, 1<<20); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	sound := func(items []rtree.Item) *rtree.Tree {
		tree, err := rtree.Open(pack(items), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	// first50 pulls up to 50 pairs from an incremental join.
	first50 := func(it *Iterator, err error) (int, error) {
		if err != nil {
			return 0, err
		}
		defer it.Close()
		n := 0
		for n < 50 {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		return n, it.Err()
	}
	joins := []struct {
		name string
		run  func(l, r *rtree.Tree) (int, error)
	}{
		{"AM-KDJ", func(l, r *rtree.Tree) (int, error) {
			res, err := AMKDJ(l, r, 50, Options{})
			return len(res), err
		}},
		{"B-KDJ", func(l, r *rtree.Tree) (int, error) {
			res, err := BKDJ(l, r, 50, Options{})
			return len(res), err
		}},
		{"AM-IDJ", func(l, r *rtree.Tree) (int, error) { return first50(AMIDJ(l, r, Options{BatchK: 20})) }},
		{"HS-KDJ", func(l, r *rtree.Tree) (int, error) {
			res, err := HSKDJ(l, r, 50, Options{})
			return len(res), err
		}},
		{"HS-IDJ", func(l, r *rtree.Tree) (int, error) { return first50(HSIDJ(l, r, Options{})) }},
		{"WithinJoin", func(l, r *rtree.Tree) (int, error) {
			n := 0
			err := WithinJoin(l, r, 2000, Options{}, func(Result) bool { n++; return true })
			return n, err
		}},
	}
	// descents run on the damaged tree alone.
	descents := []struct {
		name string
		run  func(tr *rtree.Tree) (int, error)
	}{
		{"Search", func(tr *rtree.Tree) (int, error) {
			n := 0
			err := tr.Search(tr.Bounds(), nil, func(rtree.Item) bool { n++; return true })
			return n, err
		}},
		{"NearestNeighbors", func(tr *rtree.Tree) (int, error) {
			ns, err := tr.NearestNeighbors(tr.Bounds(), 50, nil)
			return len(ns), err
		}},
	}
	nan := math.NaN()
	for _, tc := range []struct {
		name   string
		items  []rtree.Item
		damage func(mbr []float64)
		// build, when set, makes the damaged tree instead.
		build func(t *testing.T) *rtree.Tree
	}{
		{"NaN MinX", many, func(m []float64) { m[0] = nan }, nil},
		{"NaN MaxY", many, func(m []float64) { m[3] = nan }, nil},
		{"MinX above MaxX", many, func(m []float64) { m[0], m[2] = m[2]+1, m[0] }, nil},
		{"one-entry leaf, NaN MinY", one, func(m []float64) { m[1] = nan }, nil},
		{"empty root leaf of a non-empty tree", nil, nil, corruptEmptyTree},
	} {
		damagedTree := func(t *testing.T) *rtree.Tree {
			if tc.build != nil {
				return tc.build(t)
			}
			return damaged(tc.items, tc.damage)
		}
		for _, side := range []string{"left", "right"} {
			for _, j := range joins {
				t.Run(tc.name+"/"+side+"/"+j.name, func(t *testing.T) {
					l, r := sound(many), sound(many)
					if side == "left" {
						l = damagedTree(t)
					} else {
						r = damagedTree(t)
					}
					n, err := j.run(l, r)
					if !errors.Is(err, rtree.ErrCorruptNode) || n != 0 {
						t.Fatalf("error %v and %d pairs, want rtree.ErrCorruptNode and none", err, n)
					}
				})
			}
		}
		for _, d := range descents {
			t.Run(tc.name+"/"+d.name, func(t *testing.T) {
				n, err := d.run(damagedTree(t))
				if !errors.Is(err, rtree.ErrCorruptNode) || n != 0 {
					t.Fatalf("error %v and %d results, want rtree.ErrCorruptNode and none", err, n)
				}
			})
		}
	}
}

// corruptEmptyTree hand-crafts a packed store whose metadata claims
// objects exist but whose root leaf holds zero entries — a truncated
// index, which every reader must refuse (rtree.ErrCorruptNode) rather
// than answer as if the tree were empty.
func corruptEmptyTree(t *testing.T) *rtree.Tree {
	t.Helper()
	store := storage.NewMemStore(4096)
	if _, err := store.Alloc(); err != nil { // page 0: meta
		t.Fatal(err)
	}
	if _, err := store.Alloc(); err != nil { // page 1: root leaf
		t.Fatal(err)
	}
	meta := make([]byte, 4096)
	copy(meta, "DJRT0001")
	binary.LittleEndian.PutUint32(meta[8:], 1)  // root page id
	binary.LittleEndian.PutUint32(meta[12:], 1) // height 1: root is a leaf
	binary.LittleEndian.PutUint64(meta[16:], 7) // claims 7 objects
	binary.LittleEndian.PutUint32(meta[24:], 1) // one node
	binary.LittleEndian.PutUint64(meta[28:], math.Float64bits(0))
	binary.LittleEndian.PutUint64(meta[36:], math.Float64bits(0))
	binary.LittleEndian.PutUint64(meta[44:], math.Float64bits(100))
	binary.LittleEndian.PutUint64(meta[52:], math.Float64bits(100))
	if err := store.WritePage(0, meta); err != nil {
		t.Fatal(err)
	}
	// Page 1 stays zeroed: level 0, count 0 — an empty leaf, sound only
	// as the root of a tree of no objects.
	tree, err := rtree.Open(store, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() == 0 {
		t.Fatal("test premise broken: corrupt tree reports size 0")
	}
	return tree
}
