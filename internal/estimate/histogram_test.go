package estimate

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/geom"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(geom.NewRect(0, 0, 1, 1), 0); err == nil {
		t.Fatal("grid 0 must be rejected")
	}
	h, err := NewHistogram(geom.NewRect(0, 0, 1, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Grid() != 8 {
		t.Fatalf("Grid = %d", h.Grid())
	}
}

func TestHistogramEmptyAndDegenerate(t *testing.T) {
	h, _ := NewHistogram(geom.NewRect(0, 0, 100, 100), 8)
	if h.Initial(10) != 0 {
		t.Fatal("empty histogram must estimate 0")
	}
	if h.ExpectedPairs(50) != 0 {
		t.Fatal("empty histogram must expect 0 pairs")
	}
	// Degenerate bounds: everything in one cell; no panic, zero
	// distance estimates.
	hd, _ := NewHistogram(geom.RectFromPoint(geom.Point{X: 5, Y: 5}), 4)
	hd.AddLeft(geom.RectFromPoint(geom.Point{X: 5, Y: 5}))
	hd.AddRight(geom.RectFromPoint(geom.Point{X: 5, Y: 5}))
	if d := hd.Initial(1); d != 0 {
		t.Fatalf("degenerate Initial = %g, want 0", d)
	}
}

func TestExpectedPairsMonotoneAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	bounds := geom.NewRect(0, 0, 1000, 1000)
	h, _ := NewHistogram(bounds, 16)
	const n = 400
	for i := 0; i < n; i++ {
		h.AddLeft(geom.RectFromPoint(geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}))
		h.AddRight(geom.RectFromPoint(geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}))
	}
	prev := -1.0
	for d := 0.0; d <= 1500; d += 25 {
		e := h.ExpectedPairs(d)
		if e < prev {
			t.Fatalf("ExpectedPairs not monotone at d=%g: %g < %g", d, e, prev)
		}
		prev = e
	}
	if total := h.ExpectedPairs(1 << 20); math.Abs(total-float64(n*n)) > 1e-6 {
		t.Fatalf("ExpectedPairs at diameter = %g, want %d", total, n*n)
	}
	if h.ExpectedPairs(-1) != 0 {
		t.Fatal("negative distance must expect 0 pairs")
	}
}

// trueKth computes the real k-th pair distance for point sets.
func trueKth(a, b []geom.Point, k int) float64 {
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

// On uniform data, the histogram estimate is comparable to the uniform
// model's (both within a small factor of truth).
func TestHistogramOnUniformData(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	bounds := geom.NewRect(0, 0, 1000, 1000)
	const n = 500
	var pa, pb []geom.Point
	h, _ := NewHistogram(bounds, 24)
	for i := 0; i < n; i++ {
		p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		pa, pb = append(pa, p), append(pb, q)
		h.AddLeft(geom.RectFromPoint(p))
		h.AddRight(geom.RectFromPoint(q))
	}
	for _, k := range []int{50, 500, 5000} {
		truth := trueKth(pa, pb, k)
		est := h.Initial(k)
		if est < truth/4 || est > truth*4 {
			t.Fatalf("k=%d: histogram estimate %g vs truth %g (off > 4x)", k, est, truth)
		}
	}
}

// On heavily clustered data the uniform model overestimates badly
// (§4.3's caveat); the histogram must be much closer to the truth.
func TestHistogramBeatsUniformModelOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	bounds := geom.NewRect(0, 0, 10000, 10000)
	const n = 600
	var pa, pb []geom.Point
	h, _ := NewHistogram(bounds, 32)
	// One dense shared cluster occupying 1% of each axis.
	for i := 0; i < n; i++ {
		p := geom.Point{X: 5000 + rng.NormFloat64()*30, Y: 5000 + rng.NormFloat64()*30}
		q := geom.Point{X: 5000 + rng.NormFloat64()*30, Y: 5000 + rng.NormFloat64()*30}
		pa, pb = append(pa, p), append(pb, q)
		h.AddLeft(geom.RectFromPoint(p))
		h.AddRight(geom.RectFromPoint(q))
	}
	// Outliers stretch the declared bounds to the full square.
	h.AddLeft(geom.RectFromPoint(geom.Point{X: 1, Y: 1}))
	h.AddRight(geom.RectFromPoint(geom.Point{X: 9999, Y: 9999}))

	model, err := NewModel(bounds, n+1, bounds, n+1)
	if err != nil {
		t.Fatal(err)
	}
	k := 1000
	truth := trueKth(pa, pb, k)
	uni := model.Initial(k)
	hist := h.Initial(k)
	if uni < truth*10 {
		t.Fatalf("test premise broken: uniform model %g not >> truth %g", uni, truth)
	}
	uniErr := uni / truth
	histErr := math.Max(hist/truth, truth/hist)
	if histErr*5 > uniErr {
		t.Fatalf("histogram (x%.1f off) not clearly better than uniform model (x%.1f off): est %g vs truth %g",
			histErr, uniErr, hist, truth)
	}
}

func TestHistogramInitialMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	bounds := geom.NewRect(0, 0, 500, 500)
	h, _ := NewHistogram(bounds, 16)
	for i := 0; i < 300; i++ {
		h.AddLeft(geom.RectFromPoint(geom.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}))
		h.AddRight(geom.RectFromPoint(geom.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}))
	}
	prev := 0.0
	for _, k := range []int{1, 10, 100, 1000, 10000} {
		d := h.Initial(k)
		if d < prev {
			t.Fatalf("Initial not monotone in k: %g after %g", d, prev)
		}
		prev = d
	}
	if h.Initial(0) != 0 || h.Initial(-3) != 0 {
		t.Fatal("non-positive k must estimate 0")
	}
}

func TestHistogramCorrectModes(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	bounds := geom.NewRect(0, 0, 500, 500)
	h, _ := NewHistogram(bounds, 8)
	for i := 0; i < 200; i++ {
		h.AddLeft(geom.RectFromPoint(geom.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}))
		h.AddRight(geom.RectFromPoint(geom.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}))
	}
	k, k0, d := 400, 100, 5.0
	abs := h.Initial(k)
	geo := d * 2 // sqrt(400/100)
	if got := h.Correct(GeometricOnly, k, k0, d); math.Abs(got-geo) > 1e-12 {
		t.Fatalf("geometric = %g, want %g", got, geo)
	}
	if got := h.Correct(ArithmeticOnly, k, k0, d); got != abs {
		t.Fatalf("arithmetic(histogram absolute) = %g, want %g", got, abs)
	}
	if got := h.Correct(Aggressive, k, k0, d); got != math.Min(abs, geo) {
		t.Fatalf("aggressive = %g", got)
	}
	if got := h.Correct(Conservative, k, k0, d); got != math.Max(abs, geo) {
		t.Fatalf("conservative = %g", got)
	}
	if got := h.Correct(Aggressive, 50, 100, d); got != d {
		t.Fatalf("k<=k0 must return dK0, got %g", got)
	}
	if got := h.Correct(Aggressive, k, 0, 0); got != abs {
		t.Fatalf("no observation must return absolute, got %g", got)
	}
}

func BenchmarkHistogramInitial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bounds := geom.NewRect(0, 0, 1000, 1000)
	h, _ := NewHistogram(bounds, 32)
	for i := 0; i < 5000; i++ {
		h.AddLeft(geom.RectFromPoint(geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}))
		h.AddRight(geom.RectFromPoint(geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Initial(1000)
	}
}

// TestExact: the oracle returns the k-th true distance whatever it is
// asked, clamped to the distances it holds.
func TestExact(t *testing.T) {
	e := Exact{1, 2, 4}
	for k, want := range map[int]float64{0: 1, 1: 1, 2: 2, 3: 4, 9: 4} {
		if got := e.Initial(k); got != want {
			t.Errorf("Initial(%d) = %g, want %g", k, got, want)
		}
		for _, mode := range []Mode{Aggressive, Conservative, ArithmeticOnly, GeometricOnly} {
			if got := e.Correct(mode, k, 1, 0.5); got != want {
				t.Errorf("Correct(%v, %d, 1, 0.5) = %g, want %g", mode, k, got, want)
			}
		}
	}
}
