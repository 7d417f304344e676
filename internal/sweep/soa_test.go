package sweep

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// entry is one node entry in row-major form, what the reference sort
// below orders.
type entry struct {
	Rect geom.Rect
	Ref  uint64
}

// key is the sweep key of a rectangle: the lower corner ascending for
// forward sweeps, the negated upper corner (so that larger coordinates
// come first) for backward sweeps.
func key(r geom.Rect, axis int, dir Direction) float64 {
	if dir == Forward {
		return r.Min(axis)
	}
	return -r.Max(axis)
}

// sortEntries is the reference sweep sort SoASorter is held to: sort.Slice
// by key over row-major entries.
func sortEntries(entries []entry, p Plan) {
	sort.Slice(entries, func(i, j int) bool {
		return key(entries[i].Rect, p.Axis, p.Dir) < key(entries[j].Rect, p.Axis, p.Dir)
	})
}

// axisGap is the axis distance between the anchor and a candidate met
// later in sweep order, as the join's sweep computes it. Because the
// anchor holds the minimum sweep key, the gap is monotone nondecreasing
// along the candidate list, which is what makes the early break of the
// sweep pruning loop safe (SweepPruning line 16 of Algorithm 1).
func axisGap(anchor, other geom.Rect, axis int, dir Direction) float64 {
	var g float64
	if dir == Forward {
		g = other.Min(axis) - anchor.Max(axis)
	} else {
		g = anchor.Min(axis) - other.Max(axis)
	}
	if g < 0 {
		return 0
	}
	return g
}

// entryAt is s's i-th entry in row-major form.
func entryAt(s *rtree.NodeSoA, i int) entry { return entry{Rect: s.Rect(i), Ref: s.Refs[i]} }

// fillSoA copies entries into a NodeSoA.
func fillSoA(s *rtree.NodeSoA, entries []entry) {
	s.Reset(len(entries))
	s.Level = 0
	for i, e := range entries {
		s.MinX[i], s.MinY[i] = e.Rect.MinX, e.Rect.MinY
		s.MaxX[i], s.MaxY[i] = e.Rect.MaxX, e.Rect.MaxY
		s.Refs[i] = e.Ref
	}
}

// TestSortSoAMatchesSortEntries pins the permutation identity the SoA
// engine rests on: SoASorter and sortEntries must order the same node
// identically — duplicate keys included — because both run the
// standard library's pdqsort over the same length and less-relation.
// Refs are unique per entry, so comparing the ref sequence verifies
// the exact permutation, not just a valid sort.
func TestSortSoAMatchesSortEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var soa rtree.NodeSoA
	var sorter SoASorter
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		entries := make([]entry, n)
		for i := range entries {
			// Draw coordinates from a coarse grid so duplicate sweep keys
			// are common: equal-key runs are where a stability or
			// less-relation mismatch would show.
			x := float64(rng.Intn(8))
			y := float64(rng.Intn(8))
			entries[i] = entry{
				Rect: geom.NewRect(x, y, x+float64(rng.Intn(3)), y+float64(rng.Intn(3))),
				Ref:  uint64(i),
			}
		}
		for axis := 0; axis < geom.Dims; axis++ {
			for _, dir := range []Direction{Forward, Backward} {
				p := Plan{Axis: axis, Dir: dir}
				ref := append([]entry(nil), entries...)
				sortEntries(ref, p)
				fillSoA(&soa, entries)
				sorter.Sort(&soa, p)
				for i := range ref {
					if soa.Refs[i] != ref[i].Ref {
						t.Fatalf("trial %d plan %+v: permutation diverges at %d: SoA ref %d, entries ref %d",
							trial, p, i, soa.Refs[i], ref[i].Ref)
					}
					if entryAt(&soa, i) != ref[i] {
						t.Fatalf("trial %d plan %+v: entry %d columns out of lockstep", trial, p, i)
					}
				}
			}
		}
	}
}

// TestSortSoANaNKeys pins that NaN sweep keys order identically in
// both paths (the soaOrder.Less negation trick exists exactly for
// this: -NaN comparisons are as false as NaN ones, matching key's
// behavior bit-for-bit).
func TestSortSoANaNKeys(t *testing.T) {
	nan := math.NaN()
	entries := []entry{
		{Rect: geom.Rect{MinX: 3, MinY: 0, MaxX: 4, MaxY: 1}, Ref: 0},
		{Rect: geom.Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}, Ref: 1},
		{Rect: geom.Rect{MinX: 1, MinY: 2, MaxX: 2, MaxY: 3}, Ref: 2},
		{Rect: geom.Rect{MinX: nan, MinY: 5, MaxX: nan, MaxY: 6}, Ref: 3},
		{Rect: geom.Rect{MinX: 2, MinY: 1, MaxX: 3, MaxY: 2}, Ref: 4},
	}
	var soa rtree.NodeSoA
	var sorter SoASorter
	for axis := 0; axis < geom.Dims; axis++ {
		for _, dir := range []Direction{Forward, Backward} {
			p := Plan{Axis: axis, Dir: dir}
			ref := append([]entry(nil), entries...)
			sortEntries(ref, p)
			fillSoA(&soa, entries)
			sorter.Sort(&soa, p)
			for i := range ref {
				if soa.Refs[i] != ref[i].Ref {
					t.Fatalf("plan %+v: NaN permutation diverges at %d: SoA ref %d, entries ref %d",
						p, i, soa.Refs[i], ref[i].Ref)
				}
			}
		}
	}
}

// TestSoASorterReuseNoAllocs pins the amortization contract: a warm
// SoASorter sorts without allocating.
func TestSoASorterReuseNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := make([]entry, 40)
	for i := range entries {
		x, y := rng.Float64()*10, rng.Float64()*10
		entries[i] = entry{Rect: geom.NewRect(x, y, x+1, y+1), Ref: uint64(i)}
	}
	var soa rtree.NodeSoA
	var sorter SoASorter
	fillSoA(&soa, entries)
	sorter.Sort(&soa, Plan{Axis: 0, Dir: Forward})
	if avg := testing.AllocsPerRun(100, func() {
		fillSoA(&soa, entries)
		sorter.Sort(&soa, Plan{Axis: 1, Dir: Backward})
	}); avg != 0 {
		t.Errorf("warm SoASorter allocates %v per sort, want 0", avg)
	}
}
