package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// boundaryCase is one partition-boundary geometry with its exact
// MinDist and MinDistSq: any bounds-only test between partitions prunes
// on the strict comparison mindist(tileMBR, tileMBR) > cutoff (as the
// node-pair pruning of the joins does), so the boundary behavior —
// touching MBRs, overlapping MBRs, degenerate zero-area MBRs — decides
// whether boundary-straddling result pairs survive pruning.
type boundaryCase struct {
	name   string
	a, b   Rect
	want   float64
	wantSq float64
}

// boundaryMinDistCases is the shared partition-boundary table: every
// MinDist implementation — the scalar Rect methods and the batch
// kernels over SoA columns — must produce these exact values, in both
// argument orders (MinDist must be bit-exactly symmetric).
func boundaryMinDistCases() []boundaryCase {
	return []boundaryCase{
		{"edge-touching", NewRect(0, 0, 1, 1), NewRect(1, 0, 2, 1), 0, 0},
		{"corner-touching", NewRect(0, 0, 1, 1), NewRect(1, 1, 2, 2), 0, 0},
		{"overlapping", NewRect(0, 0, 2, 2), NewRect(1, 1, 3, 3), 0, 0},
		{"contained", NewRect(0, 0, 4, 4), NewRect(1, 1, 2, 2), 0, 0},
		{"axis-separated", NewRect(0, 0, 1, 1), NewRect(3, 0, 4, 1), 2, 4},
		{"diagonal-separated", NewRect(0, 0, 1, 1), NewRect(2, 2, 3, 3), math.Sqrt2, 2},
		// Degenerate zero-area MBRs: a partition holding a single point
		// object collapses its tight MBR to that point.
		{"point-inside", NewRect(0, 0, 1, 1), NewRect(0.5, 0.5, 0.5, 0.5), 0, 0},
		{"point-on-corner", NewRect(0, 0, 1, 1), NewRect(1, 1, 1, 1), 0, 0},
		{"point-outside", NewRect(0, 0, 1, 1), NewRect(5, 5, 5, 5), math.Sqrt(32), 32},
		// Zero-width line MBR (vertical segment of point objects).
		{"line-separated", NewRect(0, 0, 1, 1), NewRect(2, 0, 2, 1), 1, 1},
		{"line-touching", NewRect(0, 0, 1, 1), NewRect(1, 0, 1, 1), 0, 0},
		{"two-points", NewRect(1, 2, 1, 2), NewRect(4, 6, 4, 6), 5, 25},
		{"coincident-points", NewRect(3, 3, 3, 3), NewRect(3, 3, 3, 3), 0, 0},
	}
}

// checkBoundaryMinDist runs one MinDist/MinDistSq implementation
// through the shared partition-boundary table, including the symmetry
// requirement. minDist and minDistSq abstract over the path under
// test: the scalar tests pass the Rect methods, the batch tests wrap
// the kernels.
func checkBoundaryMinDist(t *testing.T, minDist, minDistSq func(a, b Rect) float64) {
	t.Helper()
	for _, tc := range boundaryMinDistCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := minDist(tc.a, tc.b); got != tc.want {
				t.Errorf("MinDist(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			if got, rev := minDist(tc.a, tc.b), minDist(tc.b, tc.a); got != rev {
				t.Errorf("MinDist asymmetric: %v vs %v", got, rev)
			}
			if sq := minDistSq(tc.a, tc.b); sq != tc.wantSq {
				t.Errorf("MinDistSq(%v, %v) = %v, want %v", tc.a, tc.b, sq, tc.wantSq)
			}
		})
	}
}

func TestPartitionBoundaryMinDist(t *testing.T) {
	checkBoundaryMinDist(t,
		func(a, b Rect) float64 { return a.MinDist(b) },
		func(a, b Rect) float64 { return a.MinDistSq(b) },
	)
}

// TestPartitionAxisDistDegenerate pins AxisDist on touching and
// zero-extent inputs, the per-axis building block under MinDist.
func TestPartitionAxisDistDegenerate(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	if d := a.AxisDist(NewRect(1, 0, 2, 1), 0); d != 0 {
		t.Errorf("touching AxisDist x = %v, want 0", d)
	}
	if d := a.AxisDist(NewRect(3, 0, 4, 1), 0); d != 2 {
		t.Errorf("separated AxisDist x = %v, want 2", d)
	}
	p := NewRect(0.5, 7, 0.5, 7) // zero extent on both axes
	if d := a.AxisDist(p, 0); d != 0 {
		t.Errorf("interior point AxisDist x = %v, want 0", d)
	}
	if d := a.AxisDist(p, 1); d != 6 {
		t.Errorf("point AxisDist y = %v, want 6", d)
	}
}

// TestPartitionPruningSafety is the property behind bounds-only
// pruning, checked in pure geometry: partition two random datasets
// into a grid by MBR center with tight per-cell MBRs, compute the
// exact k-th nearest pair distance by brute force, and verify that every
// partition pair whose MBR-to-MBR mindist strictly exceeds that k-th
// distance contains only pairs farther than it — i.e. pruning such a
// pair can never drop an oracle result, ties at the cutoff included.
func TestPartitionPruningSafety(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRects := func(n int) []Rect {
			rs := make([]Rect, n)
			for i := range rs {
				x := rng.Float64() * 100
				y := rng.Float64() * 100
				// Mix extended, line-degenerate, and point-degenerate
				// MBRs so the tight cell MBRs exercise the boundary
				// cases above.
				w := rng.Float64() * 3
				h := rng.Float64() * 3
				switch i % 5 {
				case 3:
					w = 0
				case 4:
					w, h = 0, 0
				}
				rs[i] = NewRect(x, y, x+w, y+h)
			}
			return rs
		}
		left := randRects(120)
		right := randRects(80)

		world := left[0]
		for _, r := range left[1:] {
			world = world.Union(r)
		}
		for _, r := range right {
			world = world.Union(r)
		}

		const g = 3
		cellOf := func(r Rect) int {
			c := r.Center()
			coord := func(axis int) int {
				side := world.Side(axis)
				if side <= 0 {
					return 0
				}
				i := int(float64(g) * (c.Coord(axis) - world.Min(axis)) / side)
				if i < 0 {
					i = 0
				}
				if i >= g {
					i = g - 1
				}
				return i
			}
			return coord(1)*g + coord(0)
		}
		partition := func(rs []Rect) (cells [][]int, mbrs []Rect) {
			cells = make([][]int, g*g)
			mbrs = make([]Rect, g*g)
			for i, r := range rs {
				ci := cellOf(r)
				if len(cells[ci]) == 0 {
					mbrs[ci] = r
				} else {
					mbrs[ci] = mbrs[ci].Union(r)
				}
				cells[ci] = append(cells[ci], i)
			}
			return cells, mbrs
		}
		lcells, lmbrs := partition(left)
		rcells, rmbrs := partition(right)

		// Tight cell MBRs must contain their members, or the
		// MBR-to-MBR lower bound below would be unsound.
		for ci, members := range lcells {
			for _, i := range members {
				if !lmbrs[ci].Contains(left[i]) {
					t.Fatalf("seed %d: cell %d MBR %v misses member %v", seed, ci, lmbrs[ci], left[i])
				}
			}
		}

		// Brute-force oracle: the exact k-th smallest pair distance.
		dists := make([]float64, 0, len(left)*len(right))
		for _, l := range left {
			for _, r := range right {
				dists = append(dists, l.MinDist(r))
			}
		}
		sort.Float64s(dists)
		const k = 40
		kth := dists[k-1]

		pruned, checked := 0, 0
		for lc, lm := range lcells {
			if len(lm) == 0 {
				continue
			}
			for rc, rm := range rcells {
				if len(rm) == 0 {
					continue
				}
				if !(lmbrs[lc].MinDist(rmbrs[rc]) > kth) {
					continue // pair survives, nothing to prove
				}
				pruned++
				for _, i := range lm {
					for _, j := range rm {
						checked++
						if d := left[i].MinDist(right[j]); !(d > kth) {
							t.Fatalf("seed %d: pruned partition pair (%d,%d) contains oracle-range pair: dist %v <= kth %v",
								seed, lc, rc, d, kth)
						}
					}
				}
			}
		}
		if pruned == 0 {
			t.Fatalf("seed %d: no partition pair was prunable; property not exercised (kth=%v)", seed, kth)
		}
		t.Logf("seed %d: kth=%.4f, pruned pairs=%d, contained pairs verified=%d", seed, kth, pruned, checked)
	}
}
