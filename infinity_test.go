package distjoin

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// infiniteObjects returns n finite rectangles among which sit
// rectangles with infinite coordinates: half-infinite strips and
// quadrants, points at infinity (one coordinate or both), and the whole
// plane. IDs are 0..len-1.
func infiniteObjects(rng *rand.Rand, n int) []Object {
	inf := math.Inf(1)
	objs := randObjects(rng, n, 200, 8)
	for _, r := range []Rect{
		NewRect(150, 20, inf, 24),   // strip to +x
		NewRect(-inf, 80, 10, 81),   // strip to -x
		NewRect(40, -inf, 42, 30),   // strip to -y
		NewRect(120, 120, inf, inf), // quadrant
		PointRect(inf, 50),          // points at infinity
		PointRect(inf, 60),
		PointRect(-inf, 100),
		PointRect(70, inf),
		PointRect(inf, inf),
		PointRect(-inf, -inf),
		NewRect(inf, 0, inf, 200), // a segment at x = +Inf
		NewRect(-inf, -inf, inf, inf),
	} {
		objs = append(objs, Object{ID: int64(len(objs)), Rect: r})
	}
	rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	for i := range objs {
		objs[i].ID = int64(i)
	}
	return objs
}

// brutePairs is every pair of a × b in join order by distance, with
// ties broken by IDs.
func brutePairs(a, b []Object) []Pair {
	var ps []Pair
	for _, x := range a {
		for _, y := range b {
			ps = append(ps, Pair{LeftID: x.ID, RightID: y.ID, LeftRect: x.Rect, RightRect: y.Rect, Dist: x.Rect.MinDist(y.Rect)})
		}
	}
	sortPairs(ps)
	return ps
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Dist != ps[j].Dist {
			return ps[i].Dist < ps[j].Dist
		}
		if ps[i].LeftID != ps[j].LeftID {
			return ps[i].LeftID < ps[j].LeftID
		}
		return ps[i].RightID < ps[j].RightID
	})
}

// TestInfiniteCoordinates: every algorithm answers exactly on data with
// ±Inf coordinates, from indexes built by NewIndex and by
// Builder.Insert alike. A distance is then +Inf, or finite where the
// geometry makes it so (two points on the line x = +Inf, anything
// against the whole plane), never NaN; the joins rank +Inf last and
// produce every pair. Each join runs to the whole cross product and must
// equal brute force as a set, in nondecreasing distance order, and a
// short k must give brute force's first k distances.
func TestInfiniteCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a, b := infiniteObjects(rng, 60), infiniteObjects(rng, 50)
	want := brutePairs(a, b)
	for _, p := range want {
		if math.IsNaN(p.Dist) {
			t.Fatalf("brute force distance of %v and %v is NaN", p.LeftRect, p.RightRect)
		}
	}
	if !math.IsInf(want[len(want)-1].Dist, 1) {
		t.Fatal("no pair at +Inf: the data lost its infinities")
	}

	builders := map[string]func([]Object) (*Index, error){
		"NewIndex": func(objs []Object) (*Index, error) { return NewIndex(objs, &IndexConfig{PageSize: 512}) },
		"Builder.Insert": func(objs []Object) (*Index, error) {
			b, err := NewBuilder(&IndexConfig{PageSize: 512})
			if err != nil {
				return nil, err
			}
			for _, o := range objs {
				if err := b.Insert(o); err != nil {
					return nil, err
				}
			}
			return b.Snapshot(nil)
		},
	}
	for _, build := range []string{"NewIndex", "Builder.Insert"} {
		left, err := builders[build](a)
		if err != nil {
			t.Fatalf("%s: %v", build, err)
		}
		right, err := builders[build](b)
		if err != nil {
			t.Fatalf("%s: %v", build, err)
		}
		if left.Height() < 2 {
			t.Fatalf("%s: a one-level index joins no node pairs", build)
		}
		type join struct {
			name string
			run  func(k int) ([]Pair, error)
		}
		var joins []join
		for _, algo := range []Algorithm{AMKDJ, BKDJ, HSKDJ, SJSort} {
			algo := algo
			joins = append(joins, join{algo.String(), func(k int) ([]Pair, error) {
				return KDistanceJoin(left, right, k, &Options{Algorithm: algo, MaxDist: math.Inf(1), BatchK: 64})
			}})
		}
		for _, algo := range []Algorithm{AMKDJ, HSKDJ} {
			algo := algo
			joins = append(joins, join{"incremental " + algo.String(), func(k int) ([]Pair, error) {
				it, err := IncrementalJoin(left, right, &Options{Algorithm: algo, BatchK: 64})
				if err != nil {
					return nil, err
				}
				defer it.Close()
				var out []Pair
				for len(out) < k {
					p, ok := it.Next()
					if !ok {
						break
					}
					out = append(out, p)
				}
				return out, it.Err()
			}})
		}
		for _, j := range joins {
			for _, k := range []int{len(want), 100} {
				name := fmt.Sprintf("%s %s k=%d", build, j.name, k)
				got, err := j.run(k)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != k {
					t.Fatalf("%s: %d pairs", name, len(got))
				}
				for i := range got {
					if got[i].Dist != want[i].Dist {
						t.Fatalf("%s: pair %d at distance %v, brute force %v", name, i, got[i].Dist, want[i].Dist)
					}
				}
				if k == len(want) {
					sortPairs(got)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: the pairs differ from brute force", name)
					}
				}
			}
		}
	}
}
