package join

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/sweep"
)

// restrictCase is one input of the restriction's exactness check: the
// entries of both sides, the rectangles their bounds must also cover
// (a pair's rectangle may be larger than its entries' union), the
// cutoff and the plan.
type restrictCase struct {
	l, r           []geom.Rect
	lExtra, rExtra []geom.Rect
	cut            float64
	plan           sweep.Plan
}

// sweepNode returns rects as a node in plan's sweep order, refs base+i.
func sweepNode(rects []geom.Rect, plan sweep.Plan, base uint64) *rtree.NodeSoA {
	var n rtree.NodeSoA
	n.Reset(len(rects))
	for i, r := range rects {
		n.MinX[i], n.MinY[i], n.MaxX[i], n.MaxY[i] = r.MinX, r.MinY, r.MaxX, r.MaxY
		n.Refs[i] = base + uint64(i)
	}
	var sorter sweep.SoASorter
	sorter.Sort(&n, plan)
	return &n
}

// unionOf is the smallest rectangle covering rects and extra.
func unionOf(rects, extra []geom.Rect) geom.Rect {
	all := append(append([]geom.Rect(nil), rects...), extra...)
	if len(all) == 0 {
		return geom.Rect{}
	}
	b := all[0]
	for _, r := range all[1:] {
		b = b.Union(r)
	}
	return b
}

// checkRestriction restricts both sides of c as a sweep with c's fixed
// cutoff does and requires that each side comes back as a subsequence
// of its sweep order, the node itself when nothing was dropped, and
// that no dropped entry forms a pair with any entry of the other side
// whose distance passes the cutoff, by the batch kernel in either
// orientation or by Rect.MinDist.
func checkRestriction(t *testing.T, c restrictCase) (dropped int) {
	t.Helper()
	L, R := sweepNode(c.l, c.plan, 1000), sweepNode(c.r, c.plan, 2000)
	run := &sweepRun{e: &expander{mc: &metrics.Collector{}}, L: L, R: R, plan: c.plan,
		lBound: unionOf(c.l, c.lExtra), rBound: unionOf(c.r, c.rExtra)}
	run.fixCutoff(c.cut)
	l, r := run.restrict()
	for _, side := range []struct {
		name        string
		whole, kept *rtree.NodeSoA
		other       *rtree.NodeSoA
	}{{"left", L, l, R}, {"right", R, r, L}} {
		whole, kept, other := side.whole, side.kept, side.other
		if kept.Len() == whole.Len() && kept != whole {
			t.Fatalf("%s: nothing dropped, yet the sweep reads a copy", side.name)
		}
		dst := make([]float64, other.Len())
		one := make([]float64, 1)
		j := 0
		for i := 0; i < whole.Len(); i++ {
			e := whole.Rect(i)
			if j < kept.Len() && kept.Refs[j] == whole.Refs[i] {
				if kept.Rect(j) != e {
					t.Fatalf("%s: kept entry %d has rectangle %v, the node's %v", side.name, j, kept.Rect(j), e)
				}
				j++
				continue
			}
			dropped++
			geom.MinDistBatch(dst, e, other.MinX, other.MinY, other.MaxX, other.MaxY)
			for m := 0; m < other.Len(); m++ {
				o := other.Rect(m)
				geom.MinDistBatch(one, o, whole.MinX[i:i+1], whole.MinY[i:i+1], whole.MaxX[i:i+1], whole.MaxY[i:i+1])
				for _, d := range []float64{dst[m], one[0], e.MinDist(o), o.MinDist(e)} {
					if run.pass(d) {
						t.Fatalf("%s entry %v dropped under cutoff %v (%x), yet its distance %v (%x) to %v passes",
							side.name, e, c.cut, math.Float64bits(c.cut), d, math.Float64bits(d), o)
					}
				}
			}
		}
		if j != kept.Len() {
			t.Fatalf("%s: %d entries kept, only %d of them in sweep order", side.name, kept.Len(), j)
		}
	}
	return dropped
}

// TestRestrictionExact runs checkRestriction over random cases whose
// coordinates sit on a coarse grid (keys and gaps tie), with infinite
// coordinates and gaps near the underflow edge mixed in, under cutoffs
// that include zero, subnormal and infinite ones.
func TestRestrictionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3401))
	inf := math.Inf(1)
	coord := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return inf
		case 1:
			return -inf
		case 2:
			return float64(rng.Intn(4)) * 0x1p-538
		}
		return float64(rng.Intn(30))
	}
	rects := func(n int) []geom.Rect {
		rs := make([]geom.Rect, n)
		for i := range rs {
			rs[i] = geom.NewRect(coord(), coord(), coord(), coord())
		}
		return rs
	}
	cuts := []float64{0, 0x1p-538, 0x1p-537, 1.45 * 0x1p-537, 0x1p-500, 1, 2.5, 7, 20, inf}
	dropped := 0
	for trial := 0; trial < 3000; trial++ {
		c := restrictCase{
			l: rects(rng.Intn(12)), r: rects(rng.Intn(12)),
			cut:  cuts[rng.Intn(len(cuts))],
			plan: benchPlans[rng.Intn(len(benchPlans))],
		}
		if rng.Intn(3) == 0 {
			c.lExtra = rects(1)
		}
		if rng.Intn(3) == 0 {
			c.rExtra = rects(1)
		}
		dropped += checkRestriction(t, c)
	}
	if dropped == 0 {
		t.Fatal("no case dropped an entry; the test checks nothing")
	}
}

// FuzzRestrict is checkRestriction as a fuzz target. raw holds the
// rectangles, four float64s each (NaN coordinates, which no index
// admits, read as zero): shape's low nibble counts the left side's, the
// rest are the right side's, and shape's bits 4 and 5 make the last
// rectangle of each side widen that side's bound instead of being an
// entry. planBits picks the plan.
func FuzzRestrict(f *testing.F) {
	le := binary.LittleEndian
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			le.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	inf := math.Inf(1)
	// Cutoff zero: touching, overlapping and separate rectangles.
	f.Add(0.0, uint8(0), uint8(2), mk(0, 0, 1, 1, 3, 0, 4, 1, 1, 0, 2, 1, 5, 5, 6, 6))
	// Infinite coordinates: strips, a quadrant, points at infinity.
	f.Add(3.0, uint8(1), uint8(2), mk(-inf, 0, 5, 1, 10, 10, inf, inf, inf, 0, inf, 5, -inf, -inf, -inf, -inf, 20, -inf, 21, 4))
	f.Add(0.0, uint8(3), uint8(1), mk(inf, inf, inf, inf, 0, 0, 1, 1, -inf, -inf, inf, inf))
	// Equal sweep keys on both sides.
	f.Add(1.0, uint8(2), uint8(3), mk(2, 0, 3, 1, 2, 4, 3, 5, 2, 9, 2, 9, 2, 2, 6, 3, 2, 7, 2, 8))
	// Gaps at the underflow edge: squared, 0x1p-538 rounds to zero and
	// 1.5·0x1p-537 comes back below itself.
	f.Add(0.0, uint8(0), uint8(1), mk(0, 0, 0, 0, 0x1p-538, 0, 0x1p-538, 0))
	f.Add(1.45*0x1p-537, uint8(0), uint8(1), mk(0, 0, 0, 0, 1.5*0x1p-537, 0, 1.5*0x1p-537, 0))
	f.Add(0x1p-537, uint8(2), uint8(1+16), mk(0, 0, 0, 0, 0, 0x1p-536, 0, 0x1p-536, 0, 0, 3, 3))
	f.Fuzz(func(t *testing.T, cut float64, planBits, shape uint8, raw []byte) {
		var rects []geom.Rect
		for len(raw) >= 32 && len(rects) < 40 {
			v := make([]float64, 4)
			for i := range v {
				if v[i] = math.Float64frombits(le.Uint64(raw[8*i:])); math.IsNaN(v[i]) {
					v[i] = 0
				}
			}
			rects = append(rects, geom.NewRect(v[0], v[1], v[2], v[3]))
			raw = raw[32:]
		}
		nl := min(int(shape&15), len(rects))
		c := restrictCase{l: rects[:nl], r: rects[nl:], cut: cut,
			plan: benchPlans[int(planBits)%len(benchPlans)]}
		if shape&16 != 0 && len(c.l) > 0 {
			c.l, c.lExtra = c.l[:len(c.l)-1], c.l[len(c.l)-1:]
		}
		if shape&32 != 0 && len(c.r) > 0 {
			c.r, c.rExtra = c.r[:len(c.r)-1], c.r[len(c.r)-1:]
		}
		checkRestriction(t, c)
	})
}
