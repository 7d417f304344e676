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
// (rtree.Tree.Search, NearestNeighbors), and AllNearest, which runs both.
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
		// The facade's AllNearest: the left tree's Search, and one
		// NearestNeighbors descent of the right tree per left object.
		{"AllNearest", func(l, r *rtree.Tree) (int, error) {
			n := 0
			err := AllNearest(l, r, Options{}, func(Result) bool { n++; return true })
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
	}{
		{"NaN MinX", many, func(m []float64) { m[0] = nan }},
		{"NaN MaxY", many, func(m []float64) { m[3] = nan }},
		{"MinX above MaxX", many, func(m []float64) { m[0], m[2] = m[2]+1, m[0] }},
		{"one-entry leaf, NaN MinY", one, func(m []float64) { m[1] = nan }},
	} {
		for _, side := range []string{"left", "right"} {
			for _, j := range joins {
				t.Run(tc.name+"/"+side+"/"+j.name, func(t *testing.T) {
					l, r := sound(many), sound(many)
					if side == "left" {
						l = damaged(tc.items, tc.damage)
					} else {
						r = damaged(tc.items, tc.damage)
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
				n, err := d.run(damaged(tc.items, tc.damage))
				if !errors.Is(err, rtree.ErrCorruptNode) || n != 0 {
					t.Fatalf("error %v and %d results, want rtree.ErrCorruptNode and none", err, n)
				}
			})
		}
	}
}
