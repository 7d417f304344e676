package sweep

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// numericIndexTerm evaluates one term of Eq. 2 with brute-force
// quadrature, the reference the closed form must match.
func numericIndexTerm(d, a0, a1, b0, b1 float64, steps int) float64 {
	alen := a1 - a0
	blen := b1 - b0
	if alen == 0 || blen == 0 || d <= 0 {
		return normalizedTerm(d, a0, a1, b0, b1) // degenerate cases handled analytically
	}
	h := alen / float64(steps)
	var sum float64
	for i := 0; i <= steps; i++ {
		u := a0 + float64(i)*h
		v := math.Min(u+d, b1) - math.Max(u, b0)
		if v < 0 {
			v = 0
		}
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		sum += w * v
	}
	return sum * h / (alen * blen)
}

// Property from DESIGN.md: closed-form sweeping index equals numeric
// integration of Eq. 2 on random configurations.
func TestIndexMatchesNumericIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		r := geom.NewRect(rng.Float64()*100, rng.Float64()*100,
			rng.Float64()*100, rng.Float64()*100)
		s := geom.NewRect(rng.Float64()*100, rng.Float64()*100,
			rng.Float64()*100, rng.Float64()*100)
		d := rng.Float64() * 60
		for axis := 0; axis < geom.Dims; axis++ {
			got := Index(axis, r, s, d)
			want := numericIndexTerm(d, r.Min(axis), r.Max(axis), s.Min(axis), s.Max(axis), 20000) +
				numericIndexTerm(d, s.Min(axis), s.Max(axis), r.Min(axis), r.Max(axis), 20000)
			if math.Abs(got-want) > 1e-3*(1+want) {
				t.Fatalf("trial %d axis %d: closed form %g vs numeric %g (r=%v s=%v d=%g)",
					trial, axis, got, want, r, s, d)
			}
		}
	}
}

// Table 1 row checks for disjoint nodes (r before s with gap alpha),
// using the corrected closed forms derived from Eq. 2:
//
//	d <= alpha:                      0
//	alpha < d <= S+alpha:            (d-alpha)^2 / (2S)
//	S+alpha <= d (and d <= R+alpha): d - alpha - S/2
func TestIndexTable1DisjointRows(t *testing.T) {
	const R, S, alpha = 10.0, 4.0, 3.0
	r := geom.NewRect(0, 0, R, 1)
	s := geom.NewRect(R+alpha, 0, R+alpha+S, 1)

	cases := []struct {
		d    float64
		want float64
	}{
		{2.0, 0}, // d <= alpha
		{5.0, (5 - alpha) * (5 - alpha) / (2 * S)}, // alpha < d <= S+alpha
		{9.0, 9 - alpha - S/2},                     // S+alpha <= d <= R+alpha
	}
	for _, c := range cases {
		// Table 1 states the un-normalized integral (per unit of |s|
		// only); our term additionally divides by |r| so that the index
		// is a pair *fraction* comparable across axes. Multiply back to
		// check the row.
		got := normalizedTerm(c.d, r.MinX, r.MaxX, s.MinX, s.MaxX) * R
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("d=%g: term = %g, want %g", c.d, got, c.want)
		}
	}
	// The paper notes the second term is zero for disjoint nodes: all
	// of r's children are swept before s's first child. In Eq. 2's
	// formalization the second term slides the window from s's side
	// away from r, yielding zero overlap as well.
	if got := normalizedTerm(2.5, s.MinX, s.MaxX, r.MinX, r.MaxX); got != 0 {
		t.Errorf("second term for disjoint nodes with small window = %g, want 0", got)
	}
}

func TestIndexSymmetricInOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		r := geom.NewRect(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50, rng.Float64()*50)
		s := geom.NewRect(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50, rng.Float64()*50)
		d := rng.Float64() * 30
		for axis := 0; axis < 2; axis++ {
			if a, b := Index(axis, r, s, d), Index(axis, s, r, d); math.Abs(a-b) > 1e-9 {
				t.Fatalf("index not symmetric: %g vs %g", a, b)
			}
		}
	}
}

func TestIndexMonotoneInCutoff(t *testing.T) {
	r := geom.NewRect(0, 0, 10, 10)
	s := geom.NewRect(15, 2, 25, 8)
	prev := 0.0
	for d := 0.5; d < 40; d += 0.5 {
		idx := Index(0, r, s, d)
		if idx < prev-1e-9 {
			t.Fatalf("index must be nondecreasing in cutoff: %g after %g at d=%g", idx, prev, d)
		}
		prev = idx
	}
}

func TestIndexDegenerateRects(t *testing.T) {
	pt := geom.RectFromPoint(geom.Point{X: 5, Y: 5})
	r := geom.NewRect(0, 0, 10, 10)
	// Must not NaN/Inf.
	for axis := 0; axis < 2; axis++ {
		for _, d := range []float64{0, 0.5, 3, 100} {
			v := Index(axis, pt, r, d)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("degenerate index = %g", v)
			}
			v2 := Index(axis, pt, pt, d)
			if math.IsNaN(v2) || math.IsInf(v2, 0) {
				t.Fatalf("double-degenerate index = %g", v2)
			}
		}
	}
	// Point vs point: window of length d starting at the point covers
	// the other point iff their gap <= d... here the same point: 1+1.
	if got := Index(0, pt, pt, 1); got != 2 {
		t.Fatalf("point-point index = %g, want 2", got)
	}
}

// The motivating example of Figure 5: children spread widely along y,
// so the y axis must be selected.
func TestChooseAxisPrefersSpreadDimension(t *testing.T) {
	// Two nodes side by side horizontally, both tall and thin: spread
	// along y is large, x extents small; sweeping along y prunes more.
	r := geom.NewRect(0, 0, 2, 100)
	s := geom.NewRect(3, 0, 5, 100)
	p := Choose(r, s, 10)
	if p.Axis != 1 {
		t.Fatalf("axis = %d, want 1 (y)", p.Axis)
	}
	// Rotate the configuration: now x must win.
	r2 := geom.NewRect(0, 0, 100, 2)
	s2 := geom.NewRect(0, 3, 100, 5)
	p2 := Choose(r2, s2, 10)
	if p2.Axis != 0 {
		t.Fatalf("axis = %d, want 0 (x)", p2.Axis)
	}
}

func TestChooseInfiniteCutoffFallsBackToSpread(t *testing.T) {
	r := geom.NewRect(0, 0, 1, 50)
	s := geom.NewRect(2, 0, 3, 50)
	p := Choose(r, s, math.Inf(1))
	if p.Axis != 1 {
		t.Fatalf("axis = %d, want 1 for wider y spread", p.Axis)
	}
	p0 := Choose(r, s, 0)
	if p0.Axis != 1 {
		t.Fatalf("zero cutoff axis = %d, want 1", p0.Axis)
	}
}

func TestChooseDirection(t *testing.T) {
	// r's left edge close to s's left edge, right edges far apart:
	// left interval shorter => forward.
	r := geom.NewRect(0, 0, 4, 1)
	s := geom.NewRect(1, 0, 20, 1)
	if d := ChooseDirection(r, s, 0); d != Forward {
		t.Fatalf("direction = %v, want forward", d)
	}
	// Mirror: right interval shorter => backward.
	r2 := geom.NewRect(16, 0, 20, 1)
	s2 := geom.NewRect(0, 0, 19, 1)
	if d := ChooseDirection(r2, s2, 0); d != Backward {
		t.Fatalf("direction = %v, want backward", d)
	}
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Fatal("Direction String mismatch")
	}
}

func TestKeyAndSortEntries(t *testing.T) {
	entries := []entry{
		{Rect: geom.NewRect(5, 0, 6, 1), Ref: 0},
		{Rect: geom.NewRect(1, 0, 9, 1), Ref: 1},
		{Rect: geom.NewRect(3, 0, 4, 1), Ref: 2},
	}
	fwd := append([]entry(nil), entries...)
	sortEntries(fwd, Plan{Axis: 0, Dir: Forward})
	if fwd[0].Ref != 1 || fwd[1].Ref != 2 || fwd[2].Ref != 0 {
		t.Fatalf("forward order = %v", []uint64{fwd[0].Ref, fwd[1].Ref, fwd[2].Ref})
	}
	bwd := append([]entry(nil), entries...)
	sortEntries(bwd, Plan{Axis: 0, Dir: Backward})
	// Backward: descending Max => 9, 6, 4.
	if bwd[0].Ref != 1 || bwd[1].Ref != 0 || bwd[2].Ref != 2 {
		t.Fatalf("backward order = %v", []uint64{bwd[0].Ref, bwd[1].Ref, bwd[2].Ref})
	}
}

// Property: along a sorted candidate list, axisGap from the current
// anchor is monotone nondecreasing (break safety) and always a lower
// bound on the true axis distance, hence on MinDist.
func TestAxisGapMonotoneAndSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		var entries []entry
		for i := 0; i < 20; i++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			entries = append(entries, entry{
				Rect: geom.NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10),
			})
		}
		for _, dir := range []Direction{Forward, Backward} {
			p := Plan{Axis: trial % 2, Dir: dir}
			sortEntries(entries, p)
			anchor := entries[0]
			prev := -1.0
			for _, m := range entries[1:] {
				g := axisGap(anchor.Rect, m.Rect, p.Axis, dir)
				if g < prev-1e-12 {
					t.Fatalf("gap not monotone: %g after %g (%v)", g, prev, dir)
				}
				prev = g
				if md := anchor.Rect.MinDist(m.Rect); g > md+1e-9 {
					t.Fatalf("gap %g exceeds MinDist %g", g, md)
				}
				if ad := anchor.Rect.AxisDist(m.Rect, p.Axis); g > ad+1e-9 {
					t.Fatalf("gap %g exceeds axis dist %g", g, ad)
				}
			}
		}
	}
}

// Property: the sweep key order itself is consistent: sorting by key
// groups anchors so the minimum key is first.
func TestSweepOrderFirstIsAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	entries := make([]entry, 50)
	for i := range entries {
		x := rng.Float64() * 100
		entries[i] = entry{Rect: geom.NewRect(x, 0, x+rng.Float64()*5, 1)}
	}
	p := Plan{Axis: 0, Dir: Forward}
	sortEntries(entries, p)
	keys := make([]float64, len(entries))
	for i, e := range entries {
		keys[i] = key(e.Rect, p.Axis, p.Dir)
	}
	if !sort.Float64sAreSorted(keys) {
		t.Fatal("entries not in key order after sortEntries")
	}
}

// integrateWindowOverlapRef is integrateWindowOverlap as it stood before
// it was flattened onto the stack: a heap slice, sort.Float64s and a
// closure. It is the reference the flattened form must equal bit for bit.
func integrateWindowOverlapRef(d, a0, a1, b0, b1 float64) float64 {
	f := func(u float64) float64 {
		v := math.Min(u+d, b1) - math.Max(u, b0)
		if v < 0 {
			return 0
		}
		return v
	}
	breaks := []float64{a0, a1, b0 - d, b1 - d, b0, b1}
	sort.Float64s(breaks)
	var total float64
	for i := 0; i < len(breaks)-1; i++ {
		lo := math.Max(breaks[i], a0)
		hi := math.Min(breaks[i+1], a1)
		if hi <= lo {
			continue
		}
		total += (f(lo) + f(hi)) / 2 * (hi - lo)
	}
	return total
}

// TestIntegrateWindowOverlapBitIdentical holds the in-place form to the
// reference on random configurations and on the degenerate ones a join
// produces (zero extent, touching, nested, equal and signed-zero
// breakpoints) or a hostile page could (NaN, ±Inf, inverted intervals),
// so every sweep.Index value, and with it every chosen plan, is the one
// the reference would have produced.
func TestIntegrateWindowOverlapBitIdentical(t *testing.T) {
	check := func(d, a0, a1, b0, b1 float64) {
		t.Helper()
		got, want := integrateWindowOverlap(d, a0, a1, b0, b1), integrateWindowOverlapRef(d, a0, a1, b0, b1)
		// A NaN result (NaN or opposed infinities going in) is held to
		// being NaN only: which operand's payload an x86 add propagates
		// is the compiler's choice, and Choose only ever compares with <.
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("integrateWindowOverlap(%v, %v, %v, %v, %v) = %v (%#x), reference %v (%#x)",
				d, a0, a1, b0, b1, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 120000; i++ {
		a0, b0 := rng.Float64()*100-50, rng.Float64()*100-50
		check(rng.Float64()*40, a0, a0+rng.Float64()*30, b0, b0+rng.Float64()*30)
	}
	// Small integer coordinates: breakpoints coincide, intervals touch,
	// nest and collapse, and b0-d lands exactly on other breakpoints.
	for i := 0; i < 60000; i++ {
		a0, b0 := float64(rng.Intn(7)-3), float64(rng.Intn(7)-3)
		check(float64(rng.Intn(5)), a0, a0+float64(rng.Intn(4)), b0, b0+float64(rng.Intn(4)))
	}
	special := []float64{math.Copysign(0, -1), 0, 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, d := range special {
		for _, a0 := range special {
			for _, a1 := range special {
				for _, b0 := range special {
					for _, b1 := range special {
						check(d, a0, a1, b0, b1)
					}
				}
			}
		}
	}
}

// TestIndexAllocs: the sweeping index runs on the stack.
func TestIndexAllocs(t *testing.T) {
	r, s := geom.NewRect(0, 0, 10, 20), geom.NewRect(5, 15, 18, 40)
	var sink Plan
	if avg := testing.AllocsPerRun(100, func() { sink = Choose(r, s, 7) }); avg != 0 {
		t.Errorf("Choose allocates %v, want 0", avg)
	}
	_ = sink
}

func BenchmarkIndex(b *testing.B) {
	r := geom.NewRect(0, 0, 10, 20)
	s := geom.NewRect(5, 15, 18, 40)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Index(i%2, r, s, 7)
	}
	_ = sink
}

// BenchmarkChoose times Choose on one fixed rectangle pair (/fixed),
// where every branch predicts, on seeded inputs shaped like a join's
// expansions (/expansions), where they do not, and on the same inputs
// with each rectangle clipped to the other grown by the input's cutoff
// (/clipped), as a join passes them: the clip is made untimed, as the
// join makes it outside Choose.
func BenchmarkChoose(b *testing.B) {
	b.Run("fixed", func(b *testing.B) {
		r := geom.NewRect(0, 0, 10, 20)
		s := geom.NewRect(5, 15, 18, 40)
		for i := 0; i < b.N; i++ {
			planSink = Choose(r, s, 7)
		}
	})
	b.Run("expansions", func(b *testing.B) {
		in := expansionInputs(b, 1<<12)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := &in[i&(len(in)-1)]
			planSink = Choose(x.r, x.s, x.cutoff)
		}
	})
	b.Run("clipped", func(b *testing.B) {
		in := expansionInputs(b, 1<<12)
		for i := range in {
			x := &in[i]
			margin := math.Nextafter(x.cutoff, math.Inf(1))
			x.r, x.s = Clip(x.r, x.s, margin), Clip(x.s, x.r, margin)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := &in[i&(len(in)-1)]
			planSink = Choose(x.r, x.s, x.cutoff)
		}
	})
}

// planSink keeps BenchmarkChoose's calls from being optimised away.
var planSink Plan

// chooseInput is one call of Choose.
type chooseInput struct {
	r, s   geom.Rect
	cutoff float64
}

// expansionInputs returns n seeded inputs shaped like the node pairs a
// distance join expands: the rectangles of two R-trees over TIGER-like
// streets and hydrography, 4 KB pages, a left node drawn at random and a
// right node at its level (or the right tree's nearest one) drawn from
// those that lie within a cutoff of it, the cutoff log-uniform over four
// decades below the data's extent — the eDmax of a large k down to that
// of a small one, or a qDmax anywhere between.
func expansionInputs(b *testing.B, n int) []chooseInput {
	rng := rand.New(rand.NewSource(37))
	levels := func(items []rtree.Item) map[int][]geom.Rect {
		bl, err := rtree.NewBuilderForPageSize(4096)
		if err != nil {
			b.Fatal(err)
		}
		bl.BulkLoad(items)
		tree, err := bl.Pack(storage.NewMemStore(4096), 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		out := map[int][]geom.Rect{}
		err = tree.Walk(func(_ storage.PageID, nd *rtree.NodeSoA) error {
			if nd.Len() > 0 {
				r := nd.Rect(0)
				for i := 1; i < nd.Len(); i++ {
					r = r.Union(nd.Rect(i))
				}
				out[nd.Level] = append(out[nd.Level], r)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	left, right := levels(datagen.TigerStreets(1, 20000)), levels(datagen.TigerHydro(2, 6000))
	var lefts []geom.Rect
	var lvls []int
	for lvl := 0; left[lvl] != nil; lvl++ {
		lefts = append(lefts, left[lvl]...)
		for range left[lvl] {
			lvls = append(lvls, lvl)
		}
	}
	extent := lefts[0]
	for _, r := range lefts[1:] {
		extent = extent.Union(r)
	}
	span := math.Max(extent.MaxX-extent.MinX, extent.MaxY-extent.MinY)
	in := make([]chooseInput, 0, n)
	for len(in) < n {
		i := rng.Intn(len(lefts))
		lvl := lvls[i]
		for right[lvl] == nil {
			lvl--
		}
		cutoff := span * math.Pow(10, -1-4*rng.Float64())
		var near []geom.Rect
		for _, s := range right[lvl] {
			if lefts[i].MinDist(s) <= cutoff {
				near = append(near, s)
			}
		}
		if len(near) > 0 {
			in = append(in, chooseInput{lefts[i], near[rng.Intn(len(near))], cutoff})
		}
	}
	return in
}

// TestClip: Clip moves a bound of own in to other's grown by margin
// only where that is tighter, and a grown bound that is NaN (an
// infinite bound grown by an opposed infinite margin) moves nothing.
func TestClip(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		own, other geom.Rect
		margin     float64
		want       geom.Rect
	}{
		{geom.NewRect(0, 0, 10, 10), geom.NewRect(4, 5, 6, 6), 1, geom.NewRect(3, 4, 7, 7)},
		{geom.NewRect(0, 0, 10, 10), geom.NewRect(4, 5, 6, 6), 8, geom.NewRect(0, 0, 10, 10)},
		{geom.NewRect(0, 0, 10, 10), geom.NewRect(20, -5, 30, 5), 2, geom.Rect{MinX: 18, MinY: 0, MaxX: 10, MaxY: 7}},
		{geom.NewRect(-inf, -inf, inf, inf), geom.NewRect(0, 0, 1, 1), 2, geom.NewRect(-2, -2, 3, 3)},
		{geom.NewRect(0, 0, 10, 10), geom.NewRect(-inf, inf, inf, inf), 1, geom.Rect{MinX: 0, MinY: inf, MaxX: 10, MaxY: 10}},
		{geom.NewRect(0, 0, 10, 10), geom.NewRect(-inf, -inf, inf, inf), inf, geom.NewRect(0, 0, 10, 10)},
		{geom.NewRect(0, 0, 10, 10), geom.Rect{MinX: inf, MinY: inf, MaxX: inf, MaxY: inf}, inf, geom.NewRect(0, 0, 10, 10)},
	} {
		if got := Clip(c.own, c.other, c.margin); got != c.want {
			t.Errorf("Clip(%v, %v, %v) = %v, want %v", c.own, c.other, c.margin, got, c.want)
		}
	}
}

// TestMinMaxMatchMath holds fmin and fmax to math.Min and math.Max bit
// for bit, NaN results to being NaN, on every pair of special values
// (±0, ±Inf, NaN, the extremes) and on random ones.
func TestMinMaxMatchMath(t *testing.T) {
	check := func(x, y float64) {
		t.Helper()
		for _, f := range []struct {
			name      string
			got, want float64
		}{{"fmin", fmin(x, y), math.Min(x, y)}, {"fmax", fmax(x, y), math.Max(x, y)}} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) && !(math.IsNaN(f.got) && math.IsNaN(f.want)) {
				t.Fatalf("%s(%v, %v) = %v (%#x), math %v (%#x)", f.name, x, y, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
			}
		}
	}
	special := []float64{math.Copysign(0, -1), 0, 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, x := range special {
		for _, y := range special {
			check(x, y)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 10000; i++ {
		x, y := float64(rng.Intn(5)-2), rng.NormFloat64()
		check(x, y)
		check(y, x)
		check(x, x)
	}
}

// TestSlotPlan: SlotPlan inverts Slot on every plan.
func TestSlotPlan(t *testing.T) {
	for axis := 0; axis < 2; axis++ {
		for _, dir := range []Direction{Forward, Backward} {
			p := Plan{Axis: axis, Dir: dir}
			if got := SlotPlan(p.Slot()); got != p {
				t.Errorf("SlotPlan(%d) = %v, want %v", p.Slot(), got, p)
			}
		}
	}
}
