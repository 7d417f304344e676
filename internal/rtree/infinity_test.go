package rtree_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/join"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// infiniteItems returns n items, one in six with an infinite
// coordinate: half-infinite strips, quadrants, points at infinity and
// the whole plane among small finite rectangles. IDs start at base.
func infiniteItems(rng *rand.Rand, n int, base int64) []rtree.Item {
	inf := math.Inf(1)
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64()*100, rng.Float64()*100
		r := geom.NewRect(x, y, x+rng.Float64()*3, y+rng.Float64()*3)
		if rng.Intn(6) == 0 {
			switch rng.Intn(6) {
			case 0:
				r.MaxX = inf
			case 1:
				r.MinY = -inf
			case 2:
				r.MaxX, r.MaxY = inf, inf
			case 3:
				r = geom.NewRect(inf, y, inf, y)
			case 4:
				r = geom.NewRect(-inf, -inf, -inf, -inf)
			default:
				r = geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
			}
		}
		items[i] = rtree.Item{Rect: r, Obj: base + int64(i)}
	}
	return items
}

// TestSplitPoliciesInfiniteCoordinates inserts data with infinite
// coordinates under every split policy: the builder must keep its
// invariants (every entry's rectangle is its child's bounding
// rectangle, which the joins' restriction of each expansion relies on),
// and a join of two such trees must produce every pair, at brute
// force's distances and in its order.
func TestSplitPoliciesInfiniteCoordinates(t *testing.T) {
	for _, policy := range []rtree.SplitPolicy{rtree.SplitRStar, rtree.SplitQuadratic, rtree.SplitLinear} {
		rng := rand.New(rand.NewSource(34))
		build := func(items []rtree.Item) (*rtree.Builder, *rtree.Tree) {
			b, err := rtree.NewBuilder(8)
			if err != nil {
				t.Fatal(err)
			}
			b.SetSplitPolicy(policy)
			for _, it := range items {
				b.Insert(it.Rect, it.Obj)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("%v: %v", policy, err)
			}
			tree, err := b.Pack(storage.NewMemStore(4096), 1<<22)
			if err != nil {
				t.Fatalf("%v: %v", policy, err)
			}
			return b, tree
		}
		for seed := 0; seed < 20; seed++ {
			build(infiniteItems(rng, 300, 0))
		}

		left, right := infiniteItems(rng, 120, 0), infiniteItems(rng, 100, 1000)
		_, lt := build(left)
		_, rt := build(right)
		k := len(left) * len(right)
		want := join.BruteForce(left, right, k)
		for _, algo := range []struct {
			name string
			run  func(left, right *rtree.Tree, k int, opts join.Options) ([]join.Result, error)
		}{{"AM-KDJ", join.AMKDJ}, {"B-KDJ", join.BKDJ}} {
			name := algo.name
			got, err := algo.run(lt, rt, k, join.Options{})
			if err != nil {
				t.Fatalf("%v %s: %v", policy, name, err)
			}
			if len(got) != k {
				t.Fatalf("%v %s: %d pairs, want %d", policy, name, len(got), k)
			}
			for i := range got {
				if got[i].Dist != want[i].Dist {
					t.Fatalf("%v %s: pair %d at distance %v, brute force %v", policy, name, i, got[i].Dist, want[i].Dist)
				}
			}
			byIDs := func(a, b join.Result) int {
				if a.LeftObj != b.LeftObj {
					return int(a.LeftObj - b.LeftObj)
				}
				return int(a.RightObj - b.RightObj)
			}
			g, w := slices.Clone(got), slices.Clone(want)
			slices.SortFunc(g, byIDs)
			slices.SortFunc(w, byIDs)
			if !slices.Equal(g, w) {
				t.Fatalf("%v %s: the pairs differ from brute force", policy, name)
			}
		}
	}
}
