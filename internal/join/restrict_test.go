package join

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/memotest"
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
// orientation or by Rect.MinDist. A restriction that ends the run must
// leave no pair of the two sides that passes.
//
// It also holds the restriction under c's plan to the restriction under
// any other: whether it ends the run, and the axis computations it
// counts, do not depend on the plan.
//
// And it holds the rectangles the plan is chosen from (restrictRegion)
// to the restriction: a side that may not drop (mayDrop, never under an
// infinite cutoff) keeps its own rectangle, and when the run is not
// ended, each clipped rectangle is neither NaN nor inverted and every
// entry the restriction keeps intersects its side's.
//
// And it holds the occupancy grids' verdict (gridEmptied), which an
// expansion takes before it decodes either node, to the restriction: a
// pair the grids call emptied is one the restriction ends, with the same
// axis count. A side of one entry that is its own bound is tried as an
// object side too. byGrid reports whether the grids called it.
func checkRestriction(t *testing.T, c restrictCase) (dropped int, byGrid bool) {
	t.Helper()
	L, R := sweepNode(c.l, c.plan, 1000), sweepNode(c.r, c.plan, 2000)
	lBound, rBound := unionOf(c.l, c.lExtra), unionOf(c.r, c.rExtra)
	e := &expander{mc: &metrics.Collector{}}
	run := &sweepRun{e: e, plan: c.plan}
	e.restrict(run, L, R, lBound, rBound, c.cut)
	run.fixCutoff(c.cut)
	l, r, ok := run.left.n, run.right.n, !run.emptied
	lClip, rClip := restrictRegion(lBound, rBound, c.cut)
	_, lDrop, rDrop := dropRule(lBound, rBound, c.cut)
	if !lDrop && lClip != lBound || !rDrop && rClip != rBound {
		t.Fatalf("cutoff %v (%x): a side that may not drop is clipped: left %v → %v (may drop %v), right %v → %v (may drop %v)",
			c.cut, math.Float64bits(c.cut), lBound, lClip, lDrop, rBound, rClip, rDrop)
	}
	if ok {
		for _, side := range []struct {
			name      string
			kept      *rtree.NodeSoA
			bound, cl geom.Rect
		}{{"left", l, lBound, lClip}, {"right", r, rBound, rClip}} {
			if !(side.cl.MinX <= side.cl.MaxX) || !(side.cl.MinY <= side.cl.MaxY) {
				t.Fatalf("%s: cutoff %v (%x) clips %v to %v, NaN or inverted, yet the run goes on",
					side.name, c.cut, math.Float64bits(c.cut), side.bound, side.cl)
			}
			for j := 0; j < side.kept.Len(); j++ {
				if e := side.kept.Rect(j); !e.Intersects(side.cl) {
					t.Fatalf("%s: kept entry %v misses the clipped rectangle %v (of %v under cutoff %v, %x)",
						side.name, e, side.cl, side.bound, c.cut, math.Float64bits(c.cut))
				}
			}
		}
	}
	for _, plan := range benchPlans {
		other := &sweepRun{plan: plan}
		(&expander{}).restrict(other, sweepNode(c.l, plan, 1000), sweepNode(c.r, plan, 2000), lBound, rBound, c.cut)
		if other.emptied == ok || other.axisN != run.axisN {
			t.Fatalf("under %v the restriction ends the run %v after %d axis computations; under %v, %v after %d",
				plan, other.emptied, other.axisN, c.plan, !ok, run.axisN)
		}
	}
	if tr, lDrop, rDrop := dropRule(lBound, rBound, c.cut); lDrop || rDrop {
		lg, rg := rtree.OccupancyOf(L), rtree.OccupancyOf(R)
		ls := []pairSide{{size: L.Len(), grid: &lg}}
		if L.Len() == 1 && L.Rect(0) == lBound {
			ls = append(ls, pairSide{obj: true, n: L, size: 1})
		}
		rs := []pairSide{{size: R.Len(), grid: &rg}}
		if R.Len() == 1 && R.Rect(0) == rBound {
			rs = append(rs, pairSide{obj: true, n: R, size: 1})
		}
		for i := range ls {
			for j := range rs {
				axisN, emptied := gridEmptied(&ls[i], &rs[j], lBound, rBound, tr, lDrop, rDrop)
				if emptied && (ok || axisN != run.axisN) {
					t.Fatalf("cutoff %v (%x), left object %v, right object %v: the grids call the pair emptied with %d axis computations; the restriction ends the run %v after %d",
						c.cut, math.Float64bits(c.cut), ls[i].obj, rs[j].obj, axisN, !ok, run.axisN)
				}
				byGrid = byGrid || emptied
			}
		}
	}
	// unpaired requires that entry i of whole, a node of the named side,
	// pairs with no entry of other under the cutoff.
	dst := make([]float64, max(L.Len(), R.Len()))
	one := make([]float64, 1)
	unpaired := func(name string, whole, other *rtree.NodeSoA, i int) {
		e := whole.Rect(i)
		geom.MinDistBatch(dst, e, other.MinX, other.MinY, other.MaxX, other.MaxY)
		for m := 0; m < other.Len(); m++ {
			o := other.Rect(m)
			geom.MinDistBatch(one, o, whole.MinX[i:i+1], whole.MinY[i:i+1], whole.MaxX[i:i+1], whole.MaxY[i:i+1])
			for _, d := range []float64{dst[m], one[0], e.MinDist(o), o.MinDist(e)} {
				if run.pass(d) {
					t.Fatalf("%s entry %v dropped under cutoff %v (%x), yet its distance %v (%x) to %v passes",
						name, e, c.cut, math.Float64bits(c.cut), d, math.Float64bits(d), o)
				}
			}
		}
	}
	if !ok {
		for i := 0; i < L.Len(); i++ {
			unpaired("left", L, R, i)
		}
		return L.Len() + R.Len(), byGrid
	}
	for _, side := range []struct {
		name        string
		whole, kept *rtree.NodeSoA
		other       *rtree.NodeSoA
	}{{"left", L, l, R}, {"right", R, r, L}} {
		whole, kept, other := side.whole, side.kept, side.other
		if kept.Len() == whole.Len() && kept != whole {
			t.Fatalf("%s: nothing dropped, yet the sweep reads a copy", side.name)
		}
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
			unpaired(side.name, whole, other, i)
		}
		if j != kept.Len() {
			t.Fatalf("%s: %d entries kept, only %d of them in sweep order", side.name, kept.Len(), j)
		}
	}
	return dropped, byGrid
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
	dropped, byGrid := 0, 0
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
		d, g := checkRestriction(t, c)
		dropped += d
		if g {
			byGrid++
		}
	}
	if dropped == 0 || byGrid == 0 {
		t.Fatalf("%d entries dropped, %d pairs emptied by the grids; the test checks too little", dropped, byGrid)
	}
}

// TestPlannedExpansionGridEmptied: a planned expansion, a compensation
// stage's, of a pair whose occupancy grids prove the restriction under
// a finite cutoff empties a side comes back emptied, with the axis count
// the restriction of the pair's nodes in the plan's order gives, and
// decodes neither node: the memo gains no cell for either, whether the
// trees have room for finished nodes or keep permutations only.
func TestPlannedExpansionGridEmptied(t *testing.T) {
	left, right, lrefs, rrefs := orderBenchTrees(t)
	const cut = 2.0
	for _, spare := range []int{0, 1 << 12} {
		c, err := newContext(reopened(t, left, spare), reopened(t, right, spare), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Publish the leaves' grids, as their first expansions would,
		// without ordering any node.
		var n rtree.NodeSoA
		for _, side := range []struct {
			tree *rtree.Tree
			refs []uint64
		}{{c.left, lrefs}, {c.right, rrefs}} {
			for _, ref := range side.refs {
				pin, err := side.tree.PinNode(refPage(ref), refLevel(ref), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := side.tree.ReadNodeSoA(refPage(ref), &n, nil); err != nil {
					t.Fatal(err)
				}
				pin.PublishGrid(&n)
				pin.Release()
			}
		}
		var ln, rn rtree.NodeSoA
		var sorter sweep.SoASorter
		for i, p := range gridEmptiedPairs(t, c, lrefs, rrefs, cut) {
			plan := benchPlans[i%len(benchPlans)]
			run, err := c.ex.expansionWithPlan(&p, plan, cut)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.left.ReadNodeSoA(refPage(p.Left), &ln, nil); err != nil {
				t.Fatal(err)
			}
			if err := c.right.ReadNodeSoA(refPage(p.Right), &rn, nil); err != nil {
				t.Fatal(err)
			}
			sorter.Sort(&ln, plan)
			sorter.Sort(&rn, plan)
			want := &sweepRun{plan: plan}
			(&expander{}).restrict(want, &ln, &rn, p.LeftRect, p.RightRect, cut)
			if !run.emptied || !want.emptied || run.axisN != want.axisN {
				t.Fatalf("pair %d under %v: the expansion comes back emptied %v after %d axis computations, the restriction %v after %d",
					i, plan, run.emptied, run.axisN, want.emptied, want.axisN)
			}
		}
		for _, tree := range []*rtree.Tree{c.left, c.right} {
			if s := memotest.Read(t, tree); len(s.Nodes) != 0 || s.Perms != 0 {
				t.Fatalf("spare %d: emptied expansions left %d finished nodes and %d permutations in the memo", spare, len(s.Nodes), s.Perms)
			}
		}
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
	// One side loses every entry while the other keeps some, because
	// the one side's bound reaches the other's entries and its own
	// entries do not: the left side alone, on the x axis before a right
	// side the run would have tested and on the y axis, and the right
	// side alone (the left side, tested and keeping one of two entries,
	// is not compacted).
	f.Add(1.0, uint8(0), uint8(3+16+32), mk(10, 0, 11, 1, 12, 5, 13, 6, 0, 0, 1, 1, 2, 0, 3, 1, 2, 20, 3, 21))
	f.Add(2.0, uint8(2), uint8(2+16), mk(0, 20, 1, 21, 0, -9, 1, -8, 0, 0, 1, 1, 0, 3, 1, 4))
	f.Add(1.0, uint8(1), uint8(2+32), mk(2, 0, 3, 1, -10, 0, -9, 1, 10, 0, 11, 1, 12, 5, 13, 6, 0, 0, 1, 1))
	// Sweep-axis tails past the other side's far end, in both directions.
	f.Add(1.0, uint8(0), uint8(4), mk(0, 0, 1, 1, 2, 0, 3, 1, 5, 0, 6, 1, 9, 0, 9, 1, 1, 0, 2, 1, 3, 0, 4, 1))
	f.Add(1.0, uint8(1), uint8(4), mk(0, 0, 1, 1, 2, 0, 3, 1, 5, 0, 6, 1, 9, 0, 9, 1, 4, 0, 5, 1, 7, 0, 8, 1))
	// A gap that rounds down to the cutoff: the left entry is kept, and
	// lies past the other side's far end grown by the cutoff, rounded.
	f.Add(1.0, uint8(0), uint8(1), mk(0.25+0x1p-54, 0, 1, 1, -1, 0, -0.75, 1))
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

// farClause is beyond's clause for plan's sweep axis and direction,
// spelled out per plan: entry i of n lies past bound's far end by more
// than t.
func farClause(n *rtree.NodeSoA, i int, bound geom.Rect, t float64, plan sweep.Plan) bool {
	e := n.Rect(i)
	switch {
	case plan.Axis == 0 && plan.Dir == sweep.Forward:
		return e.MinX-bound.MaxX > t
	case plan.Axis == 0:
		return bound.MinX-e.MaxX > t
	case plan.Dir == sweep.Forward:
		return e.MinY-bound.MaxY > t
	default:
		return bound.MinY-e.MaxY > t
	}
}

// TestTailStartMatchesLinearScan: on nodes in sweep order (sorted,
// NaN-free key columns) under every plan, the tail survivorSpan finds
// by binary search starts at the first entry for which the far-end
// clause of beyond holds, and the clause holds for every entry after
// it; the span's start is the first entry before the tail that beyond
// keeps. Coordinates sit on a grid and cutoffs are whole, so keys tie
// and key−far meets t exactly; infinite keys and bounds, the floor
// cutoff and nodes of zero and one entries are mixed in.
func TestTailStartMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3501))
	inf := math.Inf(1)
	coord := func() float64 {
		switch rng.Intn(14) {
		case 0:
			return inf
		case 1:
			return -inf
		case 2:
			return float64(rng.Intn(3)) * restrictFloor
		}
		return float64(rng.Intn(20))
	}
	rect := func() geom.Rect { return geom.NewRect(coord(), coord(), coord(), coord()) }
	cuts := []float64{restrictFloor, 2 * restrictFloor, 1, 2, 3, 5, 8}
	ties, tails := 0, 0
	for trial := 0; trial < 20000; trial++ {
		rects := make([]geom.Rect, rng.Intn(3)*rng.Intn(9))
		for i := range rects {
			rects[i] = rect()
		}
		plan := benchPlans[rng.Intn(len(benchPlans))]
		n := sweepNode(rects, plan, 0)
		bound, cut := rect(), cuts[rng.Intn(len(cuts))]
		want := n.Len()
		for i := 0; i < n.Len(); i++ {
			if farClause(n, i, bound, cut, plan) {
				want = i
				break
			}
		}
		for i := want; i < n.Len(); i++ {
			if !farClause(n, i, bound, cut, plan) {
				t.Fatalf("plan %v, bound %v, cutoff %g: the far-end clause holds at entry %d but not at %d of %v",
					plan, bound, cut, want, i, rects)
			}
		}
		lo, hi := survivorSpan(n, bound, cut, plan)
		if hi != want {
			t.Fatalf("plan %v, bound %v, cutoff %g, node %v: tail at %d, the linear scan's at %d", plan, bound, cut, rects, hi, want)
		}
		wantLo := 0
		for wantLo < hi && beyond(n.MinX[wantLo], n.MinY[wantLo], n.MaxX[wantLo], n.MaxY[wantLo], bound, cut) {
			wantLo++
		}
		if lo != wantLo {
			t.Fatalf("plan %v, bound %v, cutoff %g, node %v: first survivor %d, want %d", plan, bound, cut, rects, lo, wantLo)
		}
		if want < n.Len() {
			tails++
		}
		for i := 0; i < n.Len(); i++ {
			e := n.Rect(i)
			if plan.Dir == sweep.Forward && e.Min(plan.Axis)-bound.Max(plan.Axis) == cut ||
				plan.Dir == sweep.Backward && bound.Min(plan.Axis)-e.Max(plan.Axis) == cut {
				ties++
			}
		}
	}
	if ties == 0 || tails == 0 {
		t.Fatalf("%d keys tie with the cutoff and %d nodes have a tail; the test checks too little", ties, tails)
	}
}

// TestAMIDJBookkeepsEmptiedExpansions: a fresh AM-IDJ expansion that
// the restriction empties is bookkept when its cutoff does not cover the
// pair (a later stage's larger cutoff may let it pair), and then with
// the plan a sweep would have had, so a later stage re-expands it
// exactly as if it had swept; only one the occupancy grids emptied
// comes back without a plan (expansion). Every bookkept fresh
// expansion, emptied or swept, must carry choosePlan under the stage's
// cutoff, as axis and as real-distance cutoff: the plan of the region
// the stage's restriction keeps (restrictRegion).
func TestAMIDJBookkeepsEmptiedExpansions(t *testing.T) {
	compLen := func(c *execContext) int {
		if c.comp == nil {
			return 0
		}
		return len(c.comp.infos)
	}
	l, r := memoTestData()
	var mc metrics.Collector
	it, err := AMIDJ(buildTree(t, l, 16), buildTree(t, r, 16), Options{BatchK: 40, Metrics: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	emptied, bookkept := 0, 0
	expand := it.node
	it.node = func(p *hybridq.Pair) error {
		key, cur := keyOf(p), it.eDmax
		fresh, n := it.c.bookkept(p) == nil, compLen(it.c)
		if err := expand(p); err != nil {
			return err
		}
		if !fresh || compLen(it.c) == n {
			return nil
		}
		ci := &it.c.comp.infos[n] // a fresh expansion bookkeeps as the list's last entry
		bookkept++
		if it.c.ex.run.emptied {
			emptied++
		}
		if want := it.c.choosePlan(p, cur, cur); ci.plan != want {
			t.Fatalf("pair %v bookkept with plan %v, choosePlan under the stage's cutoff %v gives %v (emptied %v)",
				key, ci.plan, cur, want, it.c.ex.run.emptied)
		}
		return nil
	}
	for n := 0; n < 4000; n++ {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if emptied == 0 || emptied == bookkept || mc.CompensationStages < 2 {
		t.Fatalf("%d of %d bookkept fresh expansions emptied over %d stages; the test needs both kinds and later stages",
			emptied, bookkept, mc.CompensationStages)
	}
}
