package estimate

import (
	"math"
	"testing"

	"distjoin/internal/geom"
)

// finite fails the test when v is NaN or infinite.
func finite(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("%s = %v, want finite", name, v)
	}
}

// TestModelDegenerateGeometry drives the Eq. 3/4/5 model through the
// geometric edge cases a join engine actually feeds it: point data
// sets (zero-area bounds), line-shaped sets (zero-area overlap),
// disjoint bounds, and a zero-area join window. Every estimate must
// come back finite and non-negative — a NaN eDmax would silently
// disable AM-KDJ's aggressive stage cutoff comparisons.
func TestModelDegenerateGeometry(t *testing.T) {
	point := geom.RectFromPoint(geom.Point{X: 5, Y: 5})
	hline := geom.NewRect(0, 3, 100, 3)
	vline := geom.NewRect(7, 0, 7, 100)
	box := geom.NewRect(0, 0, 100, 100)
	far := geom.NewRect(1e6, 1e6, 1e6+10, 1e6+10)

	cases := []struct {
		name   string
		r, s   geom.Rect
		nr, ns int
	}{
		{"point-vs-point", point, point, 1, 1},
		{"point-vs-box", point, box, 1, 1000},
		{"hline-vs-vline (point overlap)", hline, vline, 50, 50},
		{"hline-vs-hline (zero-area overlap)", hline, hline, 50, 50},
		{"disjoint boxes", box, far, 100, 100},
		{"box-vs-box", box, box, 100, 100},
	}
	for _, tc := range cases {
		m, err := NewModel(tc.r, tc.nr, tc.s, tc.ns)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		finite(t, tc.name+" rho", m.Rho())
		if m.Rho() < 0 {
			t.Fatalf("%s: rho = %v < 0", tc.name, m.Rho())
		}
		// k beyond the cross product: Eq. 3 extrapolates, it must not
		// blow up. |R| x |S| is at most 1e6 here; ask for far more.
		for _, k := range []int{0, 1, tc.nr * tc.ns, tc.nr*tc.ns + 1, 1 << 30} {
			d := m.Initial(k)
			finite(t, tc.name+" Initial", d)
			if d < 0 {
				t.Fatalf("%s: Initial(%d) = %v < 0", tc.name, k, d)
			}
		}
		// Corrections at their boundary inputs: k0 = 0 (nothing
		// produced yet), dK0 = 0 (all pairs so far at distance zero),
		// k <= k0 (stage already satisfied).
		for _, mode := range []Mode{Aggressive, Conservative, ArithmeticOnly, GeometricOnly} {
			for _, in := range []struct {
				k, k0 int
				dK0   float64
			}{
				{10, 0, 0}, {10, 0, 1}, {10, 5, 0}, {5, 10, 3}, {10, 10, 3},
				{1 << 30, 1, 1e-300}, {1 << 30, 1, 1e300},
			} {
				d := m.Correct(mode, in.k, in.k0, in.dK0)
				finite(t, tc.name+" Correct", d)
				if d < 0 {
					t.Fatalf("%s: Correct(%v,%d,%d,%g) = %v < 0", tc.name, mode, in.k, in.k0, in.dK0, d)
				}
			}
		}
	}
}

// TestModelKBeyondCrossProductMonotone pins that Eq. 3 stays monotone
// in k even past the cross-product size: a larger stopping cardinality
// can never shrink the estimated window.
func TestModelKBeyondCrossProductMonotone(t *testing.T) {
	m, err := NewModel(geom.NewRect(0, 0, 100, 100), 30, geom.NewRect(0, 0, 100, 100), 40)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, k := range []int{1, 100, 30 * 40, 30*40 + 1, 1 << 20, 1 << 30} {
		d := m.Initial(k)
		if d < prev {
			t.Fatalf("Initial(%d) = %v < previous %v", k, d, prev)
		}
		prev = d
	}
}

// TestGeometricFallback pins the paper's "if Dmax(k0) != 0" guard: a
// zero k0-th distance or empty progress must fall back to the
// arithmetic correction instead of dividing by zero.
func TestGeometricFallback(t *testing.T) {
	m, err := NewModel(geom.NewRect(0, 0, 10, 10), 10, geom.NewRect(0, 0, 10, 10), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.CorrectGeometric(20, 0, 5), m.CorrectArithmetic(20, 0, 5); got != want {
		t.Fatalf("k0=0 fallback: %v != %v", got, want)
	}
	if got, want := m.CorrectGeometric(20, 5, 0), m.CorrectArithmetic(20, 5, 0); got != want {
		t.Fatalf("dK0=0 fallback: %v != %v", got, want)
	}
	finite(t, "geometric fallback", m.CorrectGeometric(20, 0, 0))
}
