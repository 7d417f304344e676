package estimate

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/geom"
)

func unitModel(t *testing.T, nr, ns int) Model {
	t.Helper()
	m, err := NewModel(geom.NewRect(0, 0, 1, 1), nr, geom.NewRect(0, 0, 1, 1), ns)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(geom.Rect{}, 0, geom.Rect{}, 5); err == nil {
		t.Fatal("zero cardinality must be rejected")
	}
	if _, err := NewModel(geom.Rect{}, 5, geom.Rect{}, -1); err == nil {
		t.Fatal("negative cardinality must be rejected")
	}
}

func TestRho(t *testing.T) {
	m := unitModel(t, 100, 200)
	want := 1.0 / (math.Pi * 100 * 200)
	if math.Abs(m.Rho()-want) > 1e-15 {
		t.Fatalf("rho = %g, want %g", m.Rho(), want)
	}
}

func TestDisjointBoundsFallBackToUnion(t *testing.T) {
	r := geom.NewRect(0, 0, 1, 1)
	s := geom.NewRect(5, 5, 6, 6)
	m, err := NewModel(r, 10, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantArea := r.Union(s).Area() // 36
	if got := m.Rho() * math.Pi * 100; math.Abs(got-wantArea) > 1e-9 {
		t.Fatalf("union-area fallback: got area %g, want %g", got, wantArea)
	}
}

func TestDegenerateBoundsGiveZeroRho(t *testing.T) {
	// Collinear points: zero-area boxes everywhere.
	line := geom.NewRect(0, 5, 10, 5)
	m, err := NewModel(line, 10, line, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rho() != 0 {
		t.Fatalf("rho = %g, want 0 for degenerate bounds", m.Rho())
	}
	if m.Initial(100) != 0 {
		t.Fatal("initial estimate must be 0 with zero rho")
	}
}

func TestInitialFormula(t *testing.T) {
	m := unitModel(t, 1000, 1000)
	for _, k := range []int{1, 10, 100, 100000} {
		want := math.Sqrt(float64(k) * m.Rho())
		if got := m.Initial(k); math.Abs(got-want) > 1e-15 {
			t.Fatalf("Initial(%d) = %g, want %g", k, got, want)
		}
	}
	if m.Initial(0) != 0 || m.Initial(-5) != 0 {
		t.Fatal("non-positive k must estimate 0")
	}
}

// The Eq. 3 model counts about k pairs within the estimated distance
// on actual uniform data (within a generous tolerance: boundary
// effects bias it).
func TestInitialPredictsPairCountOnUniformData(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 700
	ptsR := make([]geom.Point, n)
	ptsS := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		ptsR[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		ptsS[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	m := unitModel(t, n, n)
	for _, k := range []int{100, 1000, 5000} {
		d := m.Initial(k)
		count := 0
		for _, p := range ptsR {
			for _, q := range ptsS {
				dx, dy := p.X-q.X, p.Y-q.Y
				if math.Sqrt(dx*dx+dy*dy) <= d {
					count++
				}
			}
		}
		// Expect count within a factor of 2 of k (uniform model with
		// boundary effects).
		if count < k/2 || count > k*2 {
			t.Fatalf("k=%d: model distance %g captured %d pairs", k, d, count)
		}
	}
}

// The Eq. 3 estimate equals the true Dmax within a small constant
// factor for uniform data — and overestimates for clustered data, the
// tendency §4.3 predicts.
func TestInitialOverestimatesForClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const n = 500
	const k = 200
	// Clustered: all points inside a tiny patch of the unit square.
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 0.5 + rng.Float64()*0.01, Y: 0.5 + rng.Float64()*0.01}
	}
	// The declared bounds are the full unit square (as an R-tree root
	// would report for a sparse but wide data set plus one outlier).
	m, err := NewModel(geom.NewRect(0, 0, 1, 1), n, geom.NewRect(0, 0, 1, 1), n)
	if err != nil {
		t.Fatal(err)
	}
	est := m.Initial(k)
	real := kthPairDistance(pts, pts, k)
	if est < real {
		t.Fatalf("clustered data: estimate %g should overestimate real %g", est, real)
	}
}

func kthPairDistance(a, b []geom.Point, k int) float64 {
	var ds []float64
	for _, p := range a {
		for _, q := range b {
			dx, dy := p.X-q.X, p.Y-q.Y
			ds = append(ds, math.Sqrt(dx*dx+dy*dy))
		}
	}
	sort.Float64s(ds)
	return ds[k-1]
}

func TestCorrectArithmetic(t *testing.T) {
	m := unitModel(t, 100, 100)
	d := m.CorrectArithmetic(1000, 100, 0.05)
	want := math.Sqrt(0.05*0.05 + 900*m.Rho())
	if math.Abs(d-want) > 1e-15 {
		t.Fatalf("arithmetic = %g, want %g", d, want)
	}
	// k <= k0: nothing to extrapolate.
	if got := m.CorrectArithmetic(50, 100, 0.05); got != 0.05 {
		t.Fatalf("k<=k0: %g, want 0.05", got)
	}
}

func TestCorrectGeometric(t *testing.T) {
	m := unitModel(t, 100, 100)
	if got, want := m.CorrectGeometric(400, 100, 0.05), 0.05*2; math.Abs(got-want) > 1e-15 {
		t.Fatalf("geometric = %g, want %g", got, want)
	}
	if got := m.CorrectGeometric(50, 100, 0.05); got != 0.05 {
		t.Fatalf("k<=k0: %g", got)
	}
	// Fallback to arithmetic when dK0 == 0 or k0 == 0.
	if got, want := m.CorrectGeometric(100, 0, 0), m.CorrectArithmetic(100, 0, 0); got != want {
		t.Fatalf("fallback: %g vs %g", got, want)
	}
	if got, want := m.CorrectGeometric(100, 10, 0), m.CorrectArithmetic(100, 10, 0); got != want {
		t.Fatalf("zero-distance fallback: %g vs %g", got, want)
	}
}

func TestCorrectModes(t *testing.T) {
	m := unitModel(t, 100, 100)
	k, k0, d := 1000, 100, 0.01
	arith := m.CorrectArithmetic(k, k0, d)
	geo := m.CorrectGeometric(k, k0, d)
	if got := m.Correct(Aggressive, k, k0, d); got != math.Min(arith, geo) {
		t.Fatalf("aggressive = %g, want min(%g,%g)", got, arith, geo)
	}
	if got := m.Correct(Conservative, k, k0, d); got != math.Max(arith, geo) {
		t.Fatalf("conservative = %g", got)
	}
	if got := m.Correct(ArithmeticOnly, k, k0, d); got != arith {
		t.Fatalf("arithmetic-only = %g", got)
	}
	if got := m.Correct(GeometricOnly, k, k0, d); got != geo {
		t.Fatalf("geometric-only = %g", got)
	}
}

func TestModeString(t *testing.T) {
	if Aggressive.String() != "aggressive" || Conservative.String() != "conservative" ||
		ArithmeticOnly.String() != "arithmetic" || GeometricOnly.String() != "geometric" {
		t.Fatal("mode strings mismatch")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode must still render")
	}
}

// Property: corrections are monotone in k and consistent with the
// initial estimate at k0 = 0 observations.
func TestCorrectionMonotonicity(t *testing.T) {
	m := unitModel(t, 500, 500)
	prevA, prevG := 0.0, 0.0
	for k := 100; k <= 10000; k += 100 {
		a := m.CorrectArithmetic(k, 50, 0.001)
		g := m.CorrectGeometric(k, 50, 0.001)
		if a < prevA || g < prevG {
			t.Fatalf("corrections must be nondecreasing in k")
		}
		prevA, prevG = a, g
	}
}
