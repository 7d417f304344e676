package join

import (
	"math"
	"sync"

	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/rtree"
	"distjoin/internal/sweep"
)

// sweepSide is one side of a run with its columns picked by the plan's
// axis and direction once, so that no step of the sweep re-derives them.
type sweepSide struct {
	n    *rtree.NodeSoA
	key  []float64 // orders this side's entries; the other side's anchors measure gaps to it
	base []float64 // an anchor of this side measures its gaps from it
}

// sweepRun executes one bidirectional node expansion by plane sweep
// (the PlaneSweep / AggressivePlaneSweep / CompensatePlaneSweep
// procedures of Algorithms 1–3, unified) over the struct-of-arrays
// node layout: both sides are rtree.NodeSoA columns, and the sweep
// moves indices into them, never entries. An anchor costs one load from
// its base column plus the scan of the other side's key column; its
// rectangle is read only when a candidate survives the axis scan, and
// refs only when a candidate is delivered.
//
// L and R must already be sorted per plan, and the run only ever reads
// them: either may be the tree's own finished node, shared with every
// other query on the index (expander.sideSorted). The merge loop repeatedly
// takes the entry with the minimum sweep key as the anchor and scans
// the not-yet-anchored prefix-remainder of the opposite list in key
// order, breaking at the first candidate whose axis gap exceeds the
// axis cutoff. For each surviving candidate the real distance is
// computed (and counted) and held against the real-distance cutoff;
// only a candidate within it is built — once, in place, in the run's
// scratch pair — and handed to emit, which does the queueing. Most
// candidates fail that filter, so it runs on the bare distance (pass),
// before anything is built.
//
// Ownership (docs/memory.md, "Sweep data flow and ownership"). The run
// lends emit and reexamine its one scratch pair: the pointer is valid
// only for the call, the pair must not be modified, and whoever keeps
// it copies it (Queue.PushFrom into the heap, a stack or output slice
// by appending *p). They report whether they accepted the pair; the run
// counts those in children. The run allocates nothing, and keeps nothing
// for a later stage: what that stage needs to know is the cutoff this
// one examined under (see resume).
//
// The axis cutoff comes in two forms with different scan strategies:
//
//   - fixCutoff(c): the cutoff is a constant for the whole sweep
//     (aggressive stages, AM-IDJ stages, within-joins). The candidate
//     window of an anchor is then independent of emission, so the scan
//     finds the whole window first and computes its distances with one
//     geom.MinDistBatch call over the coordinate columns.
//   - liveCutoff(f): the cutoff tightens as emissions feed the
//     distance queue (B-KDJ, AM-KDJ compensation). The scan stays
//     interleaved — cutoff, distance, emit per candidate — because the
//     window depends on what was already emitted.
//
// Either call also makes its cutoff the real-distance cutoff; the
// aggressive stages, which sweep a fixed eDmax window but filter against
// the live qDmax, then assign realCutoff. A live real-distance cutoff
// may move only as a consequence of emit or reexamine (they feed the
// distance queue): it is read once per sweep and again after each
// delivered candidate, not per candidate.
//
// Both paths count axis and real distance computations exactly as the
// historical per-entry engine did on the nodes they sweep — summed
// locally and added to the collector once per run — and emit in the
// same candidate order, which is what keeps results byte-identical. The gap
// comparisons a resumed run repeats to re-derive a prefix were counted
// by the stage that first made them, and are not counted again.
//
// Compensation: a resumed run (see resume) skips, per anchor, the
// prefix of candidates the earlier stage examined; when reexamine is
// also set that prefix is revisited through it first (the AM-IDJ band
// case, where the real-distance cutoff has grown between stages).
//
// Restriction: before the merge loop starts, each side loses every
// entry whose axis gap to the other side's bounding rectangle (lBound,
// rBound: the expanded pair's rectangles, which enclose every entry of
// their side) exceeds the real-distance cutoff then in force; the
// merge, windowEnd, scanBand and the batch kernel run on the survivors,
// compacted in sweep order (see restrict). No pair is lost and none
// moves. A dropped entry is at least its gap from every entry of the
// other side, beyond a cutoff that only tightens within the run, so no
// pair of it could ever pass, and no delivery, hence no cutoff, depends
// on it. A compacted column is a subsequence of the sorted one, so the
// merge meets the survivors in the same order and every anchor the same
// not-yet-anchored candidates, minus the dropped ones; and whether an
// anchor's gap exceeds a cutoff is monotone along a sorted column (a NaN
// gap never does), so every window and re-derived prefix ends where it
// ended on the whole node, minus the dropped entries. Each entry of a
// side the restriction may drop from counts as one axis distance
// computation, whether a test or the binary search below settled it. A
// side whose every entry goes ends the run before the merge: it could
// pair with nothing, so the merge would make no step (see restrict). The
// sweep-axis tail past the other side's far end goes by one binary
// search of the key column, which, as for windowEnd and the merge, must
// be sorted and free of NaN.
type sweepRun struct {
	e          *expander
	L, R       *rtree.NodeSoA // the expanded nodes; the sweep reads left.n, right.n (see restrict)
	plan       sweep.Plan
	axisCutoff func() float64 // dynamic cutoff; nil selects the fixed batch path
	cutoff     float64        // fixed axis cutoff, valid when axisCutoff is nil
	realCutoff func() float64 // live real-distance cutoff; nil leaves realNow fixed
	realNow    float64        // the real-distance cutoff in force (see pass)
	emit       func(p *hybridq.Pair) bool
	resumed    bool    // an earlier stage examined this sweep (see resume)
	examCutoff float64 // the fixed axis cutoff it examined under, when resumed
	reexamine  func(p *hybridq.Pair) bool
	children   int64 // candidates emit or reexamine accepted

	lBound, rBound geom.Rect // rectangles enclosing every entry of L and of R (see restrict)

	pair         hybridq.Pair // the one candidate under construction; LeftObj/RightObj fixed per run
	left, right  sweepSide
	axisN, realN int64 // distance computations of this run, not yet in the collector
}

// fixCutoff declares c the axis and real-distance cutoff for the whole
// sweep, selecting the batched candidate scan.
func (s *sweepRun) fixCutoff(c float64) {
	s.axisCutoff, s.cutoff = nil, c
	s.realCutoff, s.realNow = nil, c
}

// liveCutoff declares f, a cutoff that tightens mid-sweep, the axis and
// real-distance cutoff, selecting the interleaved candidate scan.
func (s *sweepRun) liveCutoff(f func() float64) {
	s.axisCutoff, s.realCutoff = f, f
}

// resume makes the run a later stage's re-expansion of a pair an
// earlier stage swept on the same nodes under the same plan, with the
// fixed axis cutoff examCutoff. The merge order depends on the nodes
// and the plan only, so every anchor meets the same consumption point
// as then, and the prefix that stage examined is re-derived by the gap
// comparisons it made (windowEnd): nothing per anchor is stored between
// stages.
func (s *sweepRun) resume(examCutoff float64) {
	s.resumed, s.examCutoff = true, examCutoff
}

// pass is the sweep's real-distance filter: a candidate at real
// distance d is delivered unless d exceeds the cutoff in force.
func (s *sweepRun) pass(d float64) bool { return !(d > s.realNow) }

// refreshReal re-reads a live real-distance cutoff.
func (s *sweepRun) refreshReal() {
	if s.realCutoff != nil {
		s.realNow = s.realCutoff()
	}
}

// deliver builds the pair of anchor ai and candidate m, which passed the
// filter at real distance d, in (left, right) orientation in the scratch
// pair and lends it to fn.
func (s *sweepRun) deliver(fn func(p *hybridq.Pair) bool, fromL bool, ai, m int, d float64) {
	li, ri := ai, m
	if !fromL {
		li, ri = m, ai
	}
	l, r := s.left.n, s.right.n
	p := &s.pair
	p.Dist = d
	p.Left, p.Right = l.Refs[li], r.Refs[ri]
	p.LeftRect, p.RightRect = l.Rect(li), r.Rect(ri)
	if fn(p) {
		s.children++
	}
	s.refreshReal()
}

// set points the side at n with its columns picked by plan: a forward
// sweep orders by lower bounds and measures gaps from an anchor's upper
// bound to the candidates' lower bounds; a backward sweep mirrors both.
func (sd *sweepSide) set(n *rtree.NodeSoA, plan sweep.Plan) {
	sd.n = n
	if plan.Dir == sweep.Forward {
		sd.key, sd.base = n.Lo(plan.Axis), n.Hi(plan.Axis)
	} else {
		sd.key, sd.base = n.Hi(plan.Axis), n.Lo(plan.Axis)
	}
}

// run executes the sweep.
func (s *sweepRun) run() {
	s.refreshReal()
	l, r := s.restrict()
	nl, nr := l.Len(), r.Len()
	s.left.set(l, s.plan)
	s.right.set(r, s.plan)
	kl, kr := s.left.key, s.right.key
	forward := s.plan.Dir == sweep.Forward
	i, j := 0, 0
	for i < nl && j < nr {
		// The sweep key is the lower bound going forward and the negated
		// upper bound going backward; comparing the upper bounds the
		// other way round is the same order, NaNs included.
		fromL := kl[i] <= kr[j]
		if !forward {
			fromL = kl[i] >= kr[j]
		}
		if fromL {
			s.sweepAnchor(&s.left, &s.right, true, i, j)
			i++
		} else {
			s.sweepAnchor(&s.right, &s.left, false, j, i)
			j++
		}
	}
	s.e.mc.AddAxisDist(s.axisN)
	s.e.mc.AddRealDist(s.realN)
	s.axisN, s.realN = 0, 0
}

// restrictFloor is the smallest cutoff restrict applies. The batch
// kernel squares axis gaps: a gap whose square is subnormal can come
// back from the square root smaller than it went in, and then below a
// cutoff it exceeds. Above the floor the square is a normal float64, and
// the kernel's distance is at least the gap.
const restrictFloor = 0x1p-500

// restrict returns the two nodes the sweep reads: L and R without the
// entries no pair of this run can use. An entry goes when it lies
// beyond the other side's bound by more than the real-distance cutoff
// in force (raised to the floor) along an axis. Every entry of the other
// side lies inside that bound, so along that axis the batch kernel
// measures a gap at least as large to each of them (it subtracts
// coordinates no closer, and rounding is monotone), its distance is at
// least that gap, and the cutoff only tightens: the pair would fail
// pass at any point of the run. A side whose own bound holds no entry
// that far (mayDrop) is swept whole and untested, and so are both sides
// under an infinite cutoff.
//
// A side that may drop finds its survivors' span first (survivorSpan):
// the sweep-axis tail past the other side's far end by binary search,
// then its first survivor by a scan. When either span is empty the run
// ends there: no pair of it can pass, so the merge would make no step,
// and the restriction returns an empty node for that side and the other
// side as it is, neither compacted nor, if not reached yet, tested.
// Otherwise the survivors of each span are copied in sweep order into
// the expander's restricted columns; a side that loses nothing is swept
// in place. Either way each side that may drop counts Len() axis
// distance computations, as a test of every entry did.
func (s *sweepRun) restrict() (l, r *rtree.NodeSoA) {
	l, r = s.L, s.R
	t := s.realNow
	if !(t < math.Inf(1)) {
		return l, r
	}
	if t < restrictFloor {
		t = restrictFloor
	}
	lDrop, rDrop := mayDrop(s.lBound, s.rBound, t), mayDrop(s.rBound, s.lBound, t)
	if lDrop {
		s.axisN += int64(l.Len())
	}
	if rDrop {
		s.axisN += int64(r.Len())
	}
	var lLo, lHi, rLo, rHi int
	if lDrop {
		if lLo, lHi = survivorSpan(l, s.rBound, t, s.plan); lLo == lHi {
			return emptied(&s.e.restricted().l, l), r
		}
	}
	if rDrop {
		if rLo, rHi = survivorSpan(r, s.lBound, t, s.plan); rLo == rHi {
			return l, emptied(&s.e.restricted().r, r)
		}
	}
	if lDrop {
		l = restrictInto(&s.e.restricted().l, l, s.rBound, t, lLo, lHi)
	}
	if rDrop {
		r = restrictInto(&s.e.restricted().r, r, s.lBound, t, rLo, rHi)
	}
	return l, r
}

// beyond reports whether the rectangle [minX, maxX] x [minY, maxY] lies
// farther than t > 0 from b along either axis. A difference of
// infinities of one sign is NaN and exceeds nothing; a positive
// difference means the intervals are apart, so only a gap the batch
// kernel would also measure can exceed t.
func beyond(minX, minY, maxX, maxY float64, b geom.Rect, t float64) bool {
	return b.MinX-maxX > t || minX-b.MaxX > t || b.MinY-maxY > t || minY-b.MaxY > t
}

// mayDrop reports whether some rectangle inside own can be beyond
// other under t: the farthest one along an axis is a point at own's
// near or far end, so own is tested with its bounds swapped.
func mayDrop(own, other geom.Rect, t float64) bool {
	return beyond(own.MaxX, own.MaxY, own.MinX, own.MinY, other, t)
}

// survivorSpan returns the span [lo, hi) of n, a node in plan's sweep
// order, outside which every entry is beyond bound under t: hi is where
// the sweep-axis tail past bound's far end starts (tailStart), lo the
// first entry before hi that is not beyond bound. lo == hi when nothing
// survives. Entries inside the span may still be beyond bound.
func survivorSpan(n *rtree.NodeSoA, bound geom.Rect, t float64, plan sweep.Plan) (lo, hi int) {
	forward := plan.Dir == sweep.Forward
	key, far := n.Lo(plan.Axis), bound.Max(plan.Axis)
	if !forward {
		key, far = n.Hi(plan.Axis), bound.Min(plan.Axis)
	}
	hi = tailStart(key, far, t, forward)
	minX, minY, maxX, maxY := n.MinX[:hi], n.MinY[:hi], n.MaxX[:hi], n.MaxY[:hi]
	for lo < hi && beyond(minX[lo], minY[lo], maxX[lo], maxY[lo], bound, t) {
		lo++
	}
	return lo, hi
}

// tailStart returns the first index of key, a sweep key column, from
// which every entry lies beyond far, the other side's far end along the
// sweep axis, by more than t: key[i]-far > t going forward, where keys
// are lower bounds in ascending order and far is the other bound's
// upper end, and far-key[i] > t going backward, where keys are upper
// bounds in descending order and far is the lower end. That is beyond's
// clause for the sweep axis. Along the key order it is false up to some
// index and true from there on, so a binary search finds where: the
// difference only grows (rounding is monotone), and where two infinities
// of one sign make it NaN, which exceeds nothing, either far is infinite
// in the direction the keys run, so that no difference exceeds t, or the
// key sits at the column's start. It requires what windowEnd and the
// merge do: a key column in sweep order, as the sweep sorts every node,
// and free of NaN, as every page a Builder or Pack writes is.
func tailStart(key []float64, far, t float64, forward bool) int {
	lo, hi := 0, len(key)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		var out bool
		if forward {
			out = key[m]-far > t
		} else {
			out = far-key[m] > t
		}
		if out {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// emptied returns a node with no entries for src, whose every entry is
// beyond the other side: src itself when it has none, else dst, emptied.
func emptied(dst, src *rtree.NodeSoA) *rtree.NodeSoA {
	if src.Len() == 0 {
		return src
	}
	dst.Reset(0)
	dst.Level = src.Level
	return dst
}

// restrictInto copies the entries of src's survivor span [lo, hi)
// (survivorSpan) that are not beyond bound under t into dst, in order,
// and returns dst; it returns src itself when nothing is dropped. Entry
// lo survives, and none outside the span does.
func restrictInto(dst, src *rtree.NodeSoA, bound geom.Rect, t float64, lo, hi int) *rtree.NodeSoA {
	minX, minY, maxX, maxY, refs := src.MinX[:hi], src.MinY[:hi], src.MaxX[:hi], src.MaxY[:hi], src.Refs[:hi]
	e := lo + 1
	for e < hi && !beyond(minX[e], minY[e], maxX[e], maxY[e], bound, t) {
		e++
	}
	if lo == 0 && e == src.Len() {
		return src
	}
	dst.Reset(hi - lo)
	dst.Level = src.Level
	copy(dst.MinX, minX[lo:e])
	copy(dst.MinY, minY[lo:e])
	copy(dst.MaxX, maxX[lo:e])
	copy(dst.MaxY, maxY[lo:e])
	copy(dst.Refs, refs[lo:e])
	w := e - lo
	for i := e + 1; i < hi; i++ {
		x0, y0, x1, y1 := minX[i], minY[i], maxX[i], maxY[i]
		if beyond(x0, y0, x1, y1, bound, t) {
			continue
		}
		dst.MinX[w], dst.MinY[w], dst.MaxX[w], dst.MaxY[w] = x0, y0, x1, y1
		dst.Refs[w] = refs[i]
		w++
	}
	dst.MinX, dst.MinY, dst.MaxX, dst.MaxY = dst.MinX[:w], dst.MinY[:w], dst.MaxX[:w], dst.MaxY[:w]
	dst.Refs = dst.Refs[:w]
	return dst
}

// restrictedCols holds the surviving entries of a restricted sweep's
// two sides. A query takes one from restrictedPool at its first
// restriction (expander.restricted) and endQuery gives it back. It holds
// no pointers beyond its own columns, which keep the size of the largest
// node they held.
type restrictedCols struct{ l, r rtree.NodeSoA }

var restrictedPool = sync.Pool{New: func() any { return new(restrictedCols) }}

// restricted returns the query's restricted columns, taking them from
// the pool on first use. They are valid until the expander's next sweep.
func (e *expander) restricted() *restrictedCols {
	if e.res == nil {
		e.res = restrictedPool.Get().(*restrictedCols)
	}
	return e.res
}

// releaseRestricted gives the query's restricted columns back to the
// pool.
func (e *expander) releaseRestricted() {
	if e.res != nil {
		restrictedPool.Put(e.res)
		e.res = nil
	}
}

// windowEnd returns the end of the candidate window that an anchor
// whose gaps are measured from base examines in the opposite side's key
// column col, starting at from, under the fixed axis cutoff cut: the
// first index whose axis gap exceeds cut, or len(col). A forward sweep
// measures a gap from base up to the candidate's key, a backward one
// from the key up to base; a negative gap (overlap) counts as zero, and
// a NaN gap (opposed infinities) never ends the window.
//
// The window an anchor examined under a smaller cutoff is a prefix of
// the one it examines under a larger: a gap beyond the larger cutoff is
// beyond the smaller. So re-deriving a prefix from the consumption
// point gives the same end whether the earlier stages resumed or not.
func windowEnd(col []float64, base float64, from int, cut float64, forward bool) int {
	m := from
	if forward {
		for ; m < len(col); m++ {
			g := col[m] - base
			if g < 0 {
				g = 0
			}
			if g > cut {
				break
			}
		}
	} else {
		for ; m < len(col); m++ {
			g := base - col[m]
			if g < 0 {
				g = 0
			}
			if g > cut {
				break
			}
		}
	}
	return m
}

// sweepAnchor processes one anchor: entry ai of side a, with oj the
// current consumption point of the opposite side o. fromL tells which
// of the two is the left side.
func (s *sweepRun) sweepAnchor(a, o *sweepSide, fromL bool, ai, oj int) {
	// The axis-gap scan reads one coordinate column: the candidates'
	// lower bounds against the anchor's upper bound for forward sweeps
	// (and mirrored for backward).
	forward := s.plan.Dir == sweep.Forward
	base := a.base[ai]
	col := o.key
	n := len(col)

	start := oj
	if s.resumed {
		// The earlier stage examined [oj, start). Re-deriving start
		// repeats gap comparisons that stage made and counted; they are
		// not counted again.
		start = windowEnd(col, base, oj, s.examCutoff, forward)
		if s.reexamine != nil {
			// Band mode: revisit the prefix, examined under a smaller
			// real-distance cutoff, so pairs in the grown band are
			// recovered.
			s.scanBand(a, o, fromL, ai, oj, start)
		}
	}

	if s.axisCutoff == nil {
		// Fixed cutoff: find the whole candidate window first, then
		// compute its distances with one batch kernel call.
		stop := windowEnd(col, base, start, s.cutoff, forward)
		s.axisN += int64(stop - start)
		if stop < n {
			s.axisN++ // the candidate that ended the scan was measured too
		}
		if stop > start {
			on := o.n
			dst := s.e.distScratch(stop - start)
			geom.MinDistBatch(dst, a.n.Rect(ai),
				on.MinX[start:stop], on.MinY[start:stop],
				on.MaxX[start:stop], on.MaxY[start:stop])
			s.e.plantBatchTail(dst)
			s.realN += int64(stop - start)
			for m := start; m < stop; m++ {
				if d := dst[m-start]; s.pass(d) {
					s.deliver(s.emit, fromL, ai, m, d)
				}
			}
		}
		return
	}
	// Dynamic cutoff: emissions tighten the window mid-scan, so
	// cutoff, distance, and emit stay interleaved per candidate.
	ar := a.n.Rect(ai)
	for m := start; m < n; m++ {
		s.axisN++
		var g float64
		if forward {
			g = col[m] - base
		} else {
			g = base - col[m]
		}
		if g < 0 {
			g = 0
		}
		if g > s.axisCutoff() {
			break
		}
		s.realN++
		if d := minDistOriented(fromL, ar, o.n.Rect(m)); s.pass(d) {
			s.deliver(s.emit, fromL, ai, m, d)
		}
	}
}

// scanBand revisits the previously examined candidate range
// [from, to) of anchor ai through reexamine, batching the distance
// computations when the cutoff is fixed (the only mode band
// re-examination runs under).
func (s *sweepRun) scanBand(a, o *sweepSide, fromL bool, ai, from, to int) {
	if to <= from {
		return
	}
	ar, on := a.n.Rect(ai), o.n
	s.realN += int64(to - from)
	if s.axisCutoff == nil {
		dst := s.e.distScratch(to - from)
		geom.MinDistBatch(dst, ar,
			on.MinX[from:to], on.MinY[from:to], on.MaxX[from:to], on.MaxY[from:to])
		s.e.plantBatchTail(dst)
		for m := from; m < to; m++ {
			if d := dst[m-from]; s.pass(d) {
				s.deliver(s.reexamine, fromL, ai, m, d)
			}
		}
		return
	}
	for m := from; m < to; m++ {
		if d := minDistOriented(fromL, ar, on.Rect(m)); s.pass(d) {
			s.deliver(s.reexamine, fromL, ai, m, d)
		}
	}
}

// minDistOriented is the minimum distance between an anchor's and a
// candidate's rectangle, computed as left-to-right.
func minDistOriented(anchorFromL bool, anchor, other geom.Rect) float64 {
	if anchorFromL {
		return anchor.MinDist(other)
	}
	return other.MinDist(anchor)
}

// expansion materializes both sides of a pair for sweeping: the child
// entries in SoA form, their kind, and the sweep plan (per-pair axis
// and direction selection of §3.2/§3.3, or the fixed policy for the
// ablation). The returned run is the expander's reusable scratch: it,
// and the nodes it points at, are valid until the expander's next
// expansion.
func (e *expander) expansion(p hybridq.Pair, cutoff float64) (*sweepRun, error) {
	return e.expansionWithPlan(p, e.c.choosePlan(p, cutoff))
}

// expansionWithPlan is expansion with a predetermined plan, used by the
// compensation stage to reproduce the stage-one sweep order exactly.
func (e *expander) expansionWithPlan(p hybridq.Pair, plan sweep.Plan) (*sweepRun, error) {
	c := e.c
	l, lObj, err := e.sideSorted(c.left, p.Left, p.LeftObj, p.LeftRect, &e.soaL, plan)
	if err != nil {
		return nil, err
	}
	r, rObj, err := e.sideSorted(c.right, p.Right, p.RightObj, p.RightRect, &e.soaR, plan)
	if err != nil {
		return nil, err
	}
	run := &e.run
	*run = sweepRun{} // zeroed in place; a non-zero literal would be built aside and copied
	run.e, run.L, run.R, run.plan = e, l, r, plan
	run.lBound, run.rBound = p.LeftRect, p.RightRect
	run.pair.LeftObj, run.pair.RightObj = lObj, rObj
	return run, nil
}

// sideSorted is sideSoA with the entries in plan's sweep order, and the
// one place that order is established. The page is fetched through the
// buffer pool and accounted on every call; what follows depends on what
// the tree's sweep-order memo holds for (node, plan):
//
//   - the finished node: it is returned in place of scratch. It is the
//     tree's, shared with every query on the index and never written —
//     the sweep only reads its columns.
//   - the permutation: the page was decoded through it into scratch;
//     only the child levels remain to be stamped.
//   - nothing: scratch is sorted exactly as every expansion used to
//     sort it.
//
// In the last two cases the finished scratch is offered back to the
// tree, which keeps a copy of it if it has room for decoded nodes and
// the permutation otherwise.
func (e *expander) sideSorted(tree *rtree.Tree, ref uint64, isObj bool, rect geom.Rect, scratch *rtree.NodeSoA, plan sweep.Plan) (n *rtree.NodeSoA, childIsObj bool, err error) {
	if isObj {
		scratch.SetSingle(rect, ref)
		return scratch, true, nil
	}
	page, slot := refPage(ref), plan.Slot()
	n, ordered, err := tree.ReadNodeSoAOrdered(page, slot, scratch, e.mc)
	if err != nil {
		return nil, false, err
	}
	if n.Level != refLevel(ref) {
		return nil, false, levelError(ref, n)
	}
	if n != scratch {
		return n, n.IsLeaf(), nil
	}
	var perm []uint16
	if !ordered {
		perm = e.sorter.SortTracked(scratch, plan)
	}
	if err := stampChildLevels(scratch); err != nil {
		return nil, false, err
	}
	tree.PublishSweepOrder(page, slot, perm, scratch)
	return scratch, scratch.IsLeaf(), nil
}

// choosePlan selects the pair's sweep axis and direction (§3.2/§3.3),
// or fixes either as the query's ablation says.
func (c *execContext) choosePlan(p hybridq.Pair, cutoff float64) sweep.Plan {
	a := &c.opts.Ablation
	switch {
	case !a.FixedAxis && !a.FixedDirection:
		return sweep.Choose(p.LeftRect, p.RightRect, cutoff)
	case !a.FixedAxis:
		plan := sweep.Choose(p.LeftRect, p.RightRect, cutoff)
		plan.Dir = sweep.Forward
		return plan
	case !a.FixedDirection:
		return sweep.Plan{Axis: 0, Dir: sweep.ChooseDirection(p.LeftRect, p.RightRect, 0)}
	default:
		return sweep.Plan{Axis: 0, Dir: sweep.Forward}
	}
}
