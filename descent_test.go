package distjoin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// descentObjects draws n small rectangles in a 1000×1000 square.
func descentObjects(rng *rand.Rand, n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		objs[i] = Object{ID: int64(i), Rect: NewRect(x, y, x+rng.Float64()*20, y+rng.Float64()*20)}
	}
	return objs
}

// descentTranscript runs every single-tree descent (Walk, Search,
// NearestNeighbors) and the facade entry points built on them over one
// fixed pair of three-level trees behind pools of bufferBytes, and
// writes down what each visited, in order, with the work it counted.
func descentTranscript(t *testing.T, bufferBytes int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	cfg := &IndexConfig{PageSize: 256, BufferBytes: bufferBytes}
	left, err := NewIndex(descentObjects(rng, 90), cfg)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewIndex(descentObjects(rng, 60), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if left.Height() != 3 || right.Height() != 3 {
		t.Fatalf("heights %d, %d: the fixture is meant to be two three-level trees", left.Height(), right.Height())
	}

	var b strings.Builder
	counters := func(mc *metrics.Collector) {
		fmt.Fprintf(&b, "  logical=%d physical=%d evictions=%d realdist=%d results=%d\n",
			mc.NodeAccessesLogical, mc.NodeAccessesPhysical, mc.BufferEvictions, mc.RealDistCalcs, mc.ResultsProduced)
	}
	for _, side := range []struct {
		name string
		idx  *Index
	}{{"left", left}, {"right", right}} {
		fmt.Fprintf(&b, "walk %s\n", side.name)
		if err := side.idx.tree.Walk(func(id storage.PageID, n *rtree.NodeSoA) error {
			fmt.Fprintf(&b, "  page=%d level=%d entries=%d\n", id, n.Level, n.Len())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		st, err := side.idx.Stats()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "stats %s\n  %+v fill=%016x\n", side.name, st, math.Float64bits(st.AvgLeafFill))
	}

	search := func(name string, q Rect, limit int) {
		fmt.Fprintf(&b, "search %s\n ", name)
		var mc metrics.Collector
		seen := 0
		if err := left.tree.Search(q, &mc, func(it rtree.Item) bool {
			fmt.Fprintf(&b, " %d", it.Obj)
			seen++
			return seen != limit
		}); err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
		counters(&mc)
	}
	search("window", NewRect(200, 200, 600, 500), -1)
	search("full", left.Bounds(), -1)
	search("full-stopped-at-17", left.Bounds(), 17)

	for _, k := range []int{1, 10, right.Len() + 1} {
		fmt.Fprintf(&b, "nearest k=%d\n", k)
		var mc metrics.Collector
		ns, err := right.tree.NearestNeighbors(NewRect(480, 510, 490, 515), k, &mc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			fmt.Fprintf(&b, "  %d %016x\n", n.Item.Obj, math.Float64bits(n.Dist))
		}
		counters(&mc)
	}
	objs, dists, err := right.Nearest(NewRect(10, 990, 11, 991), 5)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("facade nearest k=5\n")
	for i, o := range objs {
		fmt.Fprintf(&b, "  %d %016x\n", o.ID, math.Float64bits(dists[i]))
	}

	est, err := NewHistogramEstimator(left, right, 8)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("histogram initial\n")
	for _, k := range []int{1, 10, 100, 1000} {
		fmt.Fprintf(&b, "  k=%d %016x\n", k, math.Float64bits(est.Initial(k)))
	}
	return b.String()
}

// TestDescentGolden pins the order in which the single-tree descents
// visit nodes and objects and the work they count, for a pool that
// holds both trees and one of four frames. testdata/descent.golden was
// recorded on the commit before the row-major node was deleted; there
// is no update flag, a deliberate change edits it from the failure
// output.
func TestDescentGolden(t *testing.T) {
	var got strings.Builder
	for _, regime := range []struct {
		name        string
		bufferBytes int
	}{{"resident", 1 << 20}, {"four-frames", 4 * 256}} {
		fmt.Fprintf(&got, "== %s ==\n%s", regime.name, descentTranscript(t, regime.bufferBytes))
	}
	want, err := os.ReadFile("testdata/descent.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("transcript has %d lines, golden %d", len(gl), len(wl))
}

// TestDamagedDescentSurfaces: every facade entry point built on a
// single-tree descent hands a damaged child ref on as the named error,
// for the damage cases of rtree's TestDescentRejectsDamagedRefs, and
// so a node emptied in a tree that holds objects. The pages are patched
// as bytes: uint16 level at offset 0, uint16 entry count at offset 2,
// entry i's ref at 8 + 40*i + 32.
func TestDamagedDescentSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := &IndexConfig{PageSize: 256}
	objs := descentObjects(rng, 90)
	sound, err := NewIndex(descentObjects(rng, 60), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const firstRef = 8 + 32
	for _, tc := range []struct {
		name   string
		damage func(root, mid, leaf []byte, rootID, leafID storage.PageID, numPages int)
		want   error
	}{
		{"root lists itself", func(root, mid, leaf []byte, rootID, leafID storage.PageID, numPages int) {
			binary.LittleEndian.PutUint64(root[firstRef:], uint64(rootID))
		}, rtree.ErrCorruptNode},
		{"root lists a leaf", func(root, mid, leaf []byte, rootID, leafID storage.PageID, numPages int) {
			binary.LittleEndian.PutUint64(root[firstRef:], uint64(leafID))
		}, rtree.ErrCorruptNode},
		{"ref past the last page", func(root, mid, leaf []byte, rootID, leafID storage.PageID, numPages int) {
			binary.LittleEndian.PutUint64(mid[firstRef:], uint64(numPages))
		}, storage.ErrPageOutOfRange},
		{"leaf claims level 1", func(root, mid, leaf []byte, rootID, leafID storage.PageID, numPages int) {
			binary.LittleEndian.PutUint16(leaf, 1)
		}, rtree.ErrCorruptNode},
		{"root has no entries", func(root, mid, leaf []byte, rootID, leafID storage.PageID, numPages int) {
			binary.LittleEndian.PutUint16(root[2:], 0)
		}, rtree.ErrCorruptNode},
		{"leaf has no entries", func(root, mid, leaf []byte, rootID, leafID storage.PageID, numPages int) {
			binary.LittleEndian.PutUint16(leaf[2:], 0)
		}, rtree.ErrCorruptNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, err := NewIndex(objs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if built.Height() != 3 {
				t.Fatalf("height %d, the fixture is meant to have three levels", built.Height())
			}
			store := built.tree.Pool().Store()
			ids := [3]storage.PageID{built.tree.Root()}
			var pages [3][]byte
			for i := range pages {
				pages[i] = make([]byte, store.PageSize())
				if err := store.ReadPage(ids[i], pages[i]); err != nil {
					t.Fatal(err)
				}
				if i+1 < len(ids) {
					ids[i+1] = storage.PageID(binary.LittleEndian.Uint64(pages[i][firstRef:]))
				}
			}
			tc.damage(pages[0], pages[1], pages[2], ids[0], ids[2], store.NumPages())
			for i := range pages {
				if err := store.WritePage(ids[i], pages[i]); err != nil {
					t.Fatal(err)
				}
			}
			tree, err := rtree.Open(store, 1<<20) // a cold pool: no sound page survives
			if err != nil {
				t.Fatal(err)
			}
			damaged := &Index{tree: tree}

			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, tc.want) {
					t.Errorf("%s: error %v, want %v", what, err, tc.want)
				}
			}
			_, err = damaged.Stats()
			check("Stats", err)
			check("Search", damaged.Search(damaged.Bounds(), func(Object) bool { return true }))
			_, _, err = damaged.Nearest(damaged.Bounds(), damaged.Len()+1)
			check("Nearest", err)
			_, err = NewHistogramEstimator(damaged, sound, 8)
			check("NewHistogramEstimator left", err)
			_, err = NewHistogramEstimator(sound, damaged, 8)
			check("NewHistogramEstimator right", err)
		})
	}
}

// damagedIndex builds a three-level index over objs, hands the root,
// the first root entry's child (mid) and that child's first child (leaf)
// to damage as page bytes (uint16 level at offset 0, uint16 entry count
// at offset 2), writes them back and reopens the store behind a cold
// pool, so no sound page survives.
func damagedIndex(t *testing.T, objs []Object, cfg *IndexConfig, damage func(root, mid, leaf []byte)) *Index {
	t.Helper()
	built, err := NewIndex(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if built.Height() != 3 {
		t.Fatalf("height %d, the fixture is meant to have three levels", built.Height())
	}
	const firstRef = 8 + 32
	store := built.tree.Pool().Store()
	ids := [3]storage.PageID{built.tree.Root()}
	var pages [3][]byte
	for i := range pages {
		pages[i] = make([]byte, store.PageSize())
		if err := store.ReadPage(ids[i], pages[i]); err != nil {
			t.Fatal(err)
		}
		if i+1 < len(ids) {
			ids[i+1] = storage.PageID(binary.LittleEndian.Uint64(pages[i][firstRef:]))
		}
	}
	damage(pages[0], pages[1], pages[2])
	for i := range pages {
		if err := store.WritePage(ids[i], pages[i]); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := rtree.Open(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return &Index{tree: tree}
}

// TestDamagedJoinDescent: the joins' own descent applies the level rule
// of the single-tree descents. With a leaf that claims level 1 (its
// object IDs would be followed as pages) or an internal page that claims
// level 0 (its child page IDs would be joined as object IDs), on either
// side, every join returns the exact answer or an error wrapping
// rtree.ErrCorruptNode or storage.ErrPageOutOfRange: never a wrong
// pair, a panic or a hang. An internal page's child ref wider than a
// page ID, and a root or leaf emptied of its entries, are
// rtree.ErrCorruptNode from every join, as they are from readVisit. The
// joins run to the full cross product, so each of them reaches the
// damaged page.
func TestDamagedJoinDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := &IndexConfig{PageSize: 256}
	lobjs, robjs := descentObjects(rng, 90), descentObjects(rng, 60)
	soundL, err := NewIndex(lobjs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	soundR, err := NewIndex(robjs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := len(lobjs) * len(robjs)
	want, err := KDistanceJoin(soundL, soundR, all, &Options{Algorithm: BKDJ})
	if err != nil || len(want) != all {
		t.Fatalf("reference join: %d pairs, %v", len(want), err)
	}
	far := want[all-1].Dist

	drain := func(l, r *Index, algo Algorithm) ([]Pair, error) {
		it, err := IncrementalJoin(l, r, &Options{Algorithm: algo, BatchK: 500})
		if err != nil {
			return nil, err
		}
		defer it.Close()
		var out []Pair
		for len(out) <= all { // one past the cross product: a hang would otherwise be silent
			p, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, p)
		}
		return out, it.Err()
	}
	joins := []struct {
		name   string
		ranked bool
		run    func(l, r *Index) ([]Pair, error)
	}{
		{"AM-KDJ", true, func(l, r *Index) ([]Pair, error) { return KDistanceJoin(l, r, all, &Options{Algorithm: AMKDJ}) }},
		{"B-KDJ", true, func(l, r *Index) ([]Pair, error) { return KDistanceJoin(l, r, all, &Options{Algorithm: BKDJ}) }},
		{"HS-KDJ", true, func(l, r *Index) ([]Pair, error) { return KDistanceJoin(l, r, all, &Options{Algorithm: HSKDJ}) }},
		{"SJ-SORT", true, func(l, r *Index) ([]Pair, error) {
			return KDistanceJoin(l, r, all, &Options{Algorithm: SJSort, MaxDist: far})
		}},
		{"AM-IDJ", true, func(l, r *Index) ([]Pair, error) { return drain(l, r, AMKDJ) }},
		{"HS-IDJ", true, func(l, r *Index) ([]Pair, error) { return drain(l, r, HSKDJ) }},
		{"WithinJoin", false, func(l, r *Index) ([]Pair, error) {
			var out []Pair
			err := WithinJoin(l, r, far, nil, func(p Pair) bool { out = append(out, p); return len(out) <= all })
			return out, err
		}},
	}
	// The exact answer as a set, for the join that promises no order.
	pairID := func(p Pair) [2]int64 { return [2]int64{p.LeftID, p.RightID} }
	wantSet := make(map[[2]int64]Pair, all)
	for _, p := range want {
		wantSet[pairID(p)] = p
	}
	exact := func(got []Pair, ranked bool) bool {
		if len(got) != all {
			return false
		}
		for i, p := range got {
			if ranked && p != want[i] {
				return false
			}
			if w, ok := wantSet[pairID(p)]; !ok || w != p {
				return false
			}
		}
		return true
	}

	for _, tc := range []struct {
		name   string
		damage func(root, mid, leaf []byte)
		// corrupt: only rtree.ErrCorruptNode will do. A child ref with a
		// bit set above the page ID's 32 still leads to the sound page once
		// truncated, so the exact answer would hide that it was followed;
		// an empty node of a tree that holds objects hides what it lost.
		corrupt bool
		// atRoot: every join reads the root first, so not even one pair
		// may come before the error.
		atRoot bool
	}{
		{"leaf claims level 1", func(root, mid, leaf []byte) { binary.LittleEndian.PutUint16(leaf, 1) }, false, false},
		{"internal page claims level 0", func(root, mid, leaf []byte) { binary.LittleEndian.PutUint16(mid, 0) }, false, false},
		{"child ref wider than a page id", func(root, mid, leaf []byte) {
			ref := mid[8+32:] // the first entry's child ref, after the page header and the entry's MBR
			binary.LittleEndian.PutUint64(ref, binary.LittleEndian.Uint64(ref)|1<<40)
		}, true, false},
		{"root has no entries", func(root, mid, leaf []byte) { binary.LittleEndian.PutUint16(root[2:], 0) }, true, true},
		{"leaf has no entries", func(root, mid, leaf []byte) { binary.LittleEndian.PutUint16(leaf[2:], 0) }, true, false},
	} {
		for _, side := range []string{"left", "right"} {
			for _, j := range joins {
				t.Run(tc.name+"/"+side+"/"+j.name, func(t *testing.T) {
					// A fresh damaged tree per join: a memo filled by an
					// earlier one must not decide what this one reads.
					l, r := soundL, soundR
					if side == "left" {
						l = damagedIndex(t, lobjs, cfg, tc.damage)
					} else {
						r = damagedIndex(t, robjs, cfg, tc.damage)
					}
					got, err := j.run(l, r)
					switch {
					case tc.corrupt && !errors.Is(err, rtree.ErrCorruptNode), tc.atRoot && len(got) != 0:
						t.Fatalf("error %v and %d pairs, want an error wrapping rtree.ErrCorruptNode", err, len(got))
					case errors.Is(err, rtree.ErrCorruptNode), errors.Is(err, storage.ErrPageOutOfRange):
					case err != nil:
						t.Fatalf("error %v, want one wrapping rtree.ErrCorruptNode or storage.ErrPageOutOfRange", err)
					case !exact(got, j.ranked):
						t.Fatalf("no error and %d pairs that are not the exact answer (%d pairs)", len(got), all)
					}
				})
			}
		}
	}
}
