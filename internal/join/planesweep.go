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
// Both sides are in the plan's sweep order, and the run only ever reads
// them: either may be the tree's own finished node, shared with every
// other query on the index (pairSide.sorted). The merge loop repeatedly
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
//     finds the whole window first, then measures, filters and delivers
//     its candidates in one loop over the coordinate columns (window),
//     with the batch kernel's arithmetic inline. Most windows hold one
//     candidate or none, so the per-anchor cost is what counts: an
//     anchor of a fresh run whose first gap exceeds the cutoff is
//     counted and passed over by the merge itself.
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
// case, where the real-distance cutoff has grown between stages). Only
// a fixed-cutoff run sets reexamine.
//
// Restriction: the sides a run sweeps are its expansion's nodes less
// every entry whose axis gap to the other side's pair rectangle (which
// encloses every entry of that side) exceeds the real-distance cutoff
// the run starts from; the expansion decides that once, on the nodes in
// the plan's order, before it hands the run out (expander.restrict). No
// pair is lost and none moves. A dropped entry is at least its gap from
// every entry of the other side, beyond a cutoff that only tightens
// within the run, so no pair of it could ever pass, and no delivery,
// hence no cutoff, depends on it. A compacted column is a subsequence of
// the sorted one, so the merge meets the survivors in the same order and
// every anchor the same not-yet-anchored candidates, minus the dropped
// ones; and whether an anchor's gap exceeds a cutoff is monotone along a
// sorted column (a NaN gap never does), so every window and re-derived
// prefix ends where it ended on the whole node, minus the dropped
// entries. A run whose restriction leaves a side with no entry is
// emptied: it could pair with nothing, so it makes no step.
type sweepRun struct {
	e          *expander
	plan       sweep.Plan
	axisCutoff func() float64 // dynamic cutoff; nil selects the fixed window path
	cutoff     float64        // fixed axis cutoff, valid when axisCutoff is nil
	realCutoff func() float64 // live real-distance cutoff; nil leaves realNow fixed
	realNow    float64        // the real-distance cutoff in force (see pass)
	emit       func(p *hybridq.Pair) bool
	emptied    bool    // the restriction leaves a side with no entry: the run makes no step (see expansion)
	byGrid     bool    // emptied by the occupancy grids, before a plan was chosen: plan is unset
	resumed    bool    // an earlier stage examined this sweep (see resume)
	examCutoff float64 // the fixed axis cutoff it examined under, when resumed
	reexamine  func(p *hybridq.Pair) bool
	children   int64 // candidates emit or reexamine accepted

	pair         hybridq.Pair // the one candidate under construction; LeftObj/RightObj fixed per run
	left, right  sweepSide    // the sides as restricted (see expander.restrict)
	axisN, realN int64        // distance computations of this run, not yet in the collector
}

// fixCutoff declares c the axis and real-distance cutoff for the whole
// sweep, selecting the windowed candidate scan.
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

// run executes the sweep over the sides its expansion restricted. An
// emptied run only adds the axis computations its restriction counted.
func (s *sweepRun) run() {
	if !s.emptied {
		s.refreshReal()
		s.merge()
	}
	s.e.mc.AddAxisDist(s.axisN)
	s.e.mc.AddRealDist(s.realN)
	s.axisN, s.realN = 0, 0
}

// merge sweeps the two sides. Most anchors of a fixed-cutoff run
// examine nothing: the first candidate at the opposite consumption
// point is already beyond the cutoff. When the run is not resumed, such
// an anchor's one axis computation is counted here, and sweepAnchor is
// not called for it; it would have measured that same gap, counted it,
// and stopped.
func (s *sweepRun) merge() {
	kl, kr := s.left.key, s.right.key
	bl, br := s.left.base, s.right.base
	nl, nr := len(kl), len(kr)
	forward := s.plan.Dir == sweep.Forward
	quick, cut := s.axisCutoff == nil && !s.resumed, s.cutoff
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
			if quick && gapBeyond(kr[j], bl[i], cut, forward) {
				s.axisN++
			} else {
				s.sweepAnchor(&s.left, &s.right, true, i, j)
			}
			i++
		} else {
			if quick && gapBeyond(kl[i], br[j], cut, forward) {
				s.axisN++
			} else {
				s.sweepAnchor(&s.right, &s.left, false, j, i)
			}
			j++
		}
	}
}

// gapBeyond reports whether the axis gap from an anchor's base to a
// candidate's key exceeds cut: the test windowEnd makes at each step.
func gapBeyond(key, base, cut float64, forward bool) bool {
	g := key - base
	if !forward {
		g = base - key
	}
	if g < 0 {
		g = 0
	}
	return g > cut
}

// restrictFloor is the smallest cutoff restrict applies. The sweep's
// distance, the batch kernel's arithmetic, squares axis gaps: a gap whose square is subnormal can come
// back from the square root smaller than it went in, and then below a
// cutoff it exceeds. Above the floor the square is a normal float64, and
// the kernel's distance is at least the gap.
const restrictFloor = 0x1p-500

// restrict decides the restriction of run, once: l and r are the pair's
// nodes in the run's plan order, lBound and rBound its rectangles, and
// real the real-distance cutoff the run starts from. An entry goes when
// it lies beyond the other side's bound by more than real (raised to
// the floor) along an axis. Every entry of the other side lies inside
// that bound, so along that axis the batch kernel measures a gap at
// least as large to each of them (it subtracts coordinates no closer,
// and rounding is monotone), its distance is at least that gap, and the
// cutoff only tightens: the pair would fail pass at any point of the
// run. A side whose own bound holds no entry that far (mayDrop) is swept
// whole and untested, and so are both sides under an infinite cutoff.
//
// Each side that may drop counts Len() axis distance computations, as a
// test of every entry did, and finds its survivors' span (survivorSpan):
// the sweep-axis tail past the other side's far end by binary search,
// then its first survivor by a scan. When a span is empty, the run is
// emptied (the left side's span comes first, and when it is empty the
// right side's is not sought). Otherwise the survivors of each span are
// copied in sweep order into the expander's restricted columns, a side
// that loses nothing is swept in place, and the run's sides are pointed
// at what it sweeps.
//
// Whether a side keeps no entry, and the count, do not depend on the
// plan: a span is empty exactly when every entry of the side is beyond
// the other side's bound. So the occupancy grids may decide emptiness
// before the plan is chosen (gridEmptied).
func (e *expander) restrict(run *sweepRun, l, r *rtree.NodeSoA, lBound, rBound geom.Rect, real float64) {
	t, lDrop, rDrop := dropRule(lBound, rBound, real)
	if lDrop {
		run.axisN += int64(l.Len())
	}
	if rDrop {
		run.axisN += int64(r.Len())
	}
	var lLo, lHi, rLo, rHi int
	if lDrop {
		if lLo, lHi = survivorSpan(l, rBound, t, run.plan); lLo == lHi {
			run.emptied = true
			return
		}
	}
	if rDrop {
		if rLo, rHi = survivorSpan(r, lBound, t, run.plan); rLo == rHi {
			run.emptied = true
			return
		}
	}
	if lDrop {
		l = restrictInto(&e.restricted().l, l, rBound, t, lLo, lHi)
	}
	if rDrop {
		r = restrictInto(&e.restricted().r, r, lBound, t, rLo, rHi)
	}
	run.left.set(l, run.plan)
	run.right.set(r, run.plan)
}

// dropRule returns the cutoff the restriction applies under the
// real-distance cutoff real — real raised to the floor — and whether
// each side of a pair with rectangles lBound and rBound may lose entries
// under it. Neither may under an infinite cutoff.
func dropRule(lBound, rBound geom.Rect, real float64) (t float64, lDrop, rDrop bool) {
	if !(real < math.Inf(1)) {
		return real, false, false
	}
	t = real
	if t < restrictFloor {
		t = restrictFloor
	}
	return t, mayDrop(lBound, rBound, t), mayDrop(rBound, lBound, t)
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

// restrictedCols holds the columns a query's expansions write: the
// surviving entries of a restricted sweep's two sides. A query takes one
// from restrictedPool at its first restriction (expander.restricted),
// and endQuery gives it back. It holds no pointers beyond its own
// columns, which keep the size of the largest node they held, so a warm
// query grows neither of them.
type restrictedCols struct {
	l, r rtree.NodeSoA
}

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
			// Band mode, under a fixed cutoff: revisit the prefix,
			// examined under a smaller real-distance cutoff, so pairs in
			// the grown band are recovered.
			s.window(s.reexamine, a, o, fromL, ai, oj, start)
		}
	}

	if s.axisCutoff == nil {
		// Fixed cutoff: find the whole candidate window first, then
		// measure, filter and deliver it in one loop.
		stop := windowEnd(col, base, start, s.cutoff, forward)
		s.axisN += int64(stop - start)
		if stop < n {
			s.axisN++ // the candidate that ended the scan was measured too
		}
		s.window(s.emit, a, o, fromL, ai, start, stop)
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

// window measures the candidates [from, to) of anchor ai on side o,
// counting each as a real distance computation, and delivers through fn
// each that passes, one candidate at a time: distance, pass, deliver.
// The distance is the batch kernel's (geom.MinDistBatch with the anchor
// as the fixed rectangle): the same IEEE operations in the same order,
// computed inline, so every delivered distance keeps its bits. Under
// Ablation.BatchTail the window's last candidate takes its
// predecessor's distance, as an HS expansion's last child does
// (hsExpand).
func (s *sweepRun) window(fn func(p *hybridq.Pair) bool, a, o *sweepSide, fromL bool, ai, from, to int) {
	if to <= from {
		return
	}
	s.realN += int64(to - from)
	q, on := a.n.Rect(ai), o.n
	minX := on.MinX[from:to]
	minY, maxX, maxY := on.MinY[from:to], on.MaxX[from:to], on.MaxY[from:to]
	minY, maxX, maxY = minY[:len(minX)], maxX[:len(minX)], maxY[:len(minX)]
	tail := len(minX) // no candidate takes its predecessor's distance
	if s.e.batchTail && len(minX) >= 2 {
		tail = len(minX) - 1
	}
	var d float64
	for k := range minX {
		if k != tail {
			dx := 0.0
			switch {
			case q.MaxX < minX[k]:
				dx = minX[k] - q.MaxX
			case maxX[k] < q.MinX:
				dx = q.MinX - maxX[k]
			}
			dy := 0.0
			switch {
			case q.MaxY < minY[k]:
				dy = minY[k] - q.MaxY
			case maxY[k] < q.MinY:
				dy = q.MinY - maxY[k]
			}
			d = math.Sqrt(dx*dx + dy*dy)
		}
		if s.pass(d) {
			s.deliver(fn, fromL, ai, from+k, d)
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
// and direction selection of §3.2/§3.3 under cutoff, or the fixed policy
// for the ablation). real is the real-distance cutoff the run will start
// from, the one its restriction applies; the plan is chosen from the
// region that restriction keeps entries in (choosePlan). The returned
// run is the expander's reusable scratch: it, and the nodes it points
// at, are valid until the expander's next expansion.
//
// The run comes back restricted (expander.restrict), or emptied. When a
// side may drop entries under real, the sides' occupancy grids are read
// first, before either node is decoded (gridEmptied): if they show that
// the restriction leaves a side with no entry, the run comes back
// emptied by the grids (byGrid), holding only the restriction's axis
// count, without a plan, since no pair of it can pass. Otherwise the
// plan is chosen, both nodes are put in its order, and the restriction
// is decided on them.
func (e *expander) expansion(p *hybridq.Pair, cutoff, real float64) (*sweepRun, error) {
	return e.expand(p, sweep.Plan{}, false, cutoff, real)
}

// expansionWithPlan is expansion with a predetermined plan, used by the
// compensation stages to reproduce an earlier stage's sweep order
// exactly; real is the real-distance cutoff the run starts from. The
// run comes back restricted or emptied, as from expansion.
func (e *expander) expansionWithPlan(p *hybridq.Pair, plan sweep.Plan, real float64) (*sweepRun, error) {
	return e.expand(p, plan, true, 0, real)
}

// expand is expansion and expansionWithPlan. Each side's page is pinned
// once, left before right, before either is decoded, and held until the
// expansion has taken what it needs from it: a pin per read would count
// a second access and move the page in the pool's LRU order. The pins
// are released here, after order returns; expand holds nothing else, so
// that its two defers stay open-coded (a function whose defers times
// returns exceed fifteen runs them through the runtime's slower path,
// at every expansion).
func (e *expander) expand(p *hybridq.Pair, plan sweep.Plan, planned bool, cutoff, real float64) (*sweepRun, error) {
	var l, r pairSide
	defer l.release()
	defer r.release()
	return e.order(&l, &r, p, plan, planned, cutoff, real)
}

// order pins both sides of p into l and r and does the rest of expand.
func (e *expander) order(l, r *pairSide, p *hybridq.Pair, plan sweep.Plan, planned bool, cutoff, real float64) (*sweepRun, error) {
	c := e.c
	if err := l.open(e, c.left, p.Left, p.LeftObj, p.LeftRect, &e.soaL); err != nil {
		return nil, err
	}
	if err := r.open(e, c.right, p.Right, p.RightObj, p.RightRect, &e.soaR); err != nil {
		return nil, err
	}
	run := &e.run
	*run = sweepRun{} // zeroed in place; a non-zero literal would be built aside and copied
	run.e = e
	if t, lDrop, rDrop := dropRule(p.LeftRect, p.RightRect, real); lDrop || rDrop {
		l.lookGrid()
		r.lookGrid()
		if axisN, ok := gridEmptied(l, r, p.LeftRect, p.RightRect, t, lDrop, rDrop); ok {
			run.axisN, run.emptied, run.byGrid = axisN, true, true
			return run, nil
		}
	}
	if !planned {
		plan = c.choosePlan(p, cutoff, real)
	}
	ln, err := l.sorted(e, plan)
	if err != nil {
		return nil, err
	}
	rn, err := r.sorted(e, plan)
	if err != nil {
		return nil, err
	}
	run.plan = plan
	run.pair.LeftObj, run.pair.RightObj = l.childIsObj(), r.childIsObj()
	e.restrict(run, ln, rn, p.LeftRect, p.RightRect, real)
	return run, nil
}

// gridEmptied decides from the sides' occupancy grids (lookGrid),
// before either node is decoded, whether the restriction under t
// (dropRule, with the drop flags lDrop and rDrop) leaves a side of a
// pair with rectangles lBound and rBound with no entry. When it can
// tell, it returns the axis computations the restriction counts, Len()
// for each side that may drop, as the page header gives it; ok false
// leaves the question to the restriction (expander.restrict).
//
// Every entry the restriction keeps intersects the other side's
// rectangle grown by the successor of t (restrictRegion), so a side
// that may drop and has no entry there is emptied. A node side tells
// that from its grid (rtree.Occupancy.Misses), an object side, which is
// its one entry, by the restriction's own test (beyond).
func gridEmptied(l, r *pairSide, lBound, rBound geom.Rect, t float64, lDrop, rDrop bool) (axisN int64, ok bool) {
	m := successor(t)
	if !(lDrop && l.misses(grown(rBound, m), rBound, t) || rDrop && r.misses(grown(lBound, m), lBound, t)) {
		return 0, false
	}
	if lDrop {
		axisN += int64(l.size)
	}
	if rDrop {
		axisN += int64(r.size)
	}
	return axisN, true
}

// grown returns b grown by m on every side, rounded as sweep.Clip
// rounds it.
func grown(b geom.Rect, m float64) geom.Rect {
	return geom.Rect{MinX: b.MinX - m, MinY: b.MinY - m, MaxX: b.MaxX + m, MaxY: b.MaxY + m}
}

// successor returns the next float64 above t, which must be positive
// and finite.
func successor(t float64) float64 { return math.Float64frombits(math.Float64bits(t) + 1) }

// pairSide is one side of a pair under expansion: the node's page,
// pinned for the expansion, and the node as sorted from it. An object
// side pins nothing; it is its own one entry, in every order.
type pairSide struct {
	pin     rtree.PinnedNode
	scratch *rtree.NodeSoA // the expander's decode buffer for the side
	n       *rtree.NodeSoA // the entries in the sweep order (sorted); an object side's from open
	obj     bool
	size    int              // the entries, as the page header claims them (lookGrid)
	grid    *rtree.Occupancy // the page's grid (lookGrid); nil when there is none
}

// open pins the side's page, decoding nothing; an object side is put in
// scratch as its one entry.
func (sd *pairSide) open(e *expander, tree *rtree.Tree, ref uint64, isObj bool, rect geom.Rect, scratch *rtree.NodeSoA) error {
	sd.scratch, sd.n, sd.obj = scratch, nil, isObj
	if isObj {
		scratch.SetSingle(rect, ref)
		sd.n, sd.size = scratch, 1
		return nil
	}
	pin, err := tree.PinNode(refPage(ref), refLevel(ref), e.mc)
	if err != nil {
		return err
	}
	sd.pin = pin
	return nil
}

// lookGrid reads a node side's entry count from its page header and
// looks up the page's grid. PinNode has checked the header's level.
func (sd *pairSide) lookGrid() {
	if sd.obj {
		return
	}
	_, sd.size = sd.pin.Header()
	sd.grid = sd.pin.Grid()
}

// misses reports whether the side has no entry that intersects q, the
// other side's rectangle bound grown by the successor of t, and so none
// the restriction under t keeps (gridEmptied): from its grid for a
// node, by the restriction's own test for an object.
func (sd *pairSide) misses(q, bound geom.Rect, t float64) bool {
	if sd.obj {
		return beyond(sd.n.MinX[0], sd.n.MinY[0], sd.n.MaxX[0], sd.n.MaxY[0], bound, t)
	}
	return sd.grid != nil && sd.grid.Misses(q)
}

// sorted returns the node in plan's sweep order, and is the one place
// that order is established. What it does depends on what the tree's
// sweep-order memo holds for (node, plan):
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
// the permutation otherwise. An object side is returned as it is. The
// tree checked the node (rtree.PinNode, PinnedNode.Ordered) before it
// can be sorted or published, and the page's occupancy grid is
// published from it unless one already is.
func (sd *pairSide) sorted(e *expander, plan sweep.Plan) (*rtree.NodeSoA, error) {
	if sd.obj {
		return sd.n, nil
	}
	slot := plan.Slot()
	n, ordered, err := sd.pin.Ordered(slot, sd.scratch)
	if err != nil {
		return nil, err
	}
	if n == sd.scratch {
		var perm []uint16
		if !ordered {
			perm = e.sorter.SortTracked(n, plan)
		}
		stampChildLevels(n)
		sd.pin.Publish(slot, perm, n)
	}
	if sd.grid == nil {
		sd.pin.PublishGrid(n)
	}
	sd.n = n
	return n, nil
}

// childIsObj reports whether the side's entries are objects.
func (sd *pairSide) childIsObj() bool { return sd.obj || sd.n.IsLeaf() }

// release unpins the side's page; deferred in expand, it is the
// expansion's one release.
func (sd *pairSide) release() { sd.pin.Release() }

// choosePlan selects the sweep axis and direction (§3.2/§3.3) of pair
// p's run under the axis cutoff cutoff, or fixes either as the query's
// ablation says. The plan is chosen from the pair's rectangles clipped
// to the region its restriction under the real-distance cutoff real
// keeps entries in (restrictRegion): those are the entries the sweep
// meets.
func (c *execContext) choosePlan(p *hybridq.Pair, cutoff, real float64) sweep.Plan {
	l, r := restrictRegion(p.LeftRect, p.RightRect, real)
	a := &c.opts.Ablation
	switch {
	case !a.FixedAxis && !a.FixedDirection:
		return sweep.Choose(l, r, cutoff)
	case !a.FixedAxis:
		plan := sweep.Choose(l, r, cutoff)
		plan.Dir = sweep.Forward
		return plan
	case !a.FixedDirection:
		return sweep.Plan{Axis: 0, Dir: sweep.ChooseDirection(l, r, 0)}
	default:
		return sweep.Plan{Axis: 0, Dir: sweep.Forward}
	}
}

// restrictRegion returns the rectangles lBound and rBound of a pair's
// sides clipped to the region in which the restriction under the
// real-distance cutoff real keeps entries: lBound ∩ (rBound ⊕ t) and
// rBound ∩ (lBound ⊕ t), t the cutoff the restriction applies
// (dropRule). The margin is t's successor, not t: the restriction keeps
// an entry whose gap, rounded, is at most t, so the exact gap is below
// the successor and the entry's near bound within the rounded sum or
// difference of the other side's bound and the successor. So every
// entry the restriction keeps intersects its side's clipped rectangle,
// a side that may not drop (mayDrop) lies inside that region and comes
// back as it is, and while both sides keep an entry neither rectangle
// is inverted. Under an infinite cutoff both come back as they are.
// The clip of a side that keeps no entry may be inverted; Choose still
// returns a plan for it.
func restrictRegion(lBound, rBound geom.Rect, real float64) (l, r geom.Rect) {
	t, lDrop, rDrop := dropRule(lBound, rBound, real)
	if !lDrop && !rDrop {
		return lBound, rBound
	}
	margin := successor(t) // t is positive and finite
	return sweep.Clip(lBound, rBound, margin), sweep.Clip(rBound, lBound, margin)
}
