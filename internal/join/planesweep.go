package join

import (
	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/rtree"
	"distjoin/internal/sweep"
)

// anchorRange records, for one anchor of a plane sweep, the half-open
// index range of candidates in the opposite sorted list that were
// examined (axis gap within the stage's cutoff). AM-KDJ's compensation
// stage resumes each anchor at .to; AM-IDJ's band re-examination
// revisits [.from,.to) under a grown cutoff.
type anchorRange struct {
	from, to int32
}

// sweepRanges is the per-expansion compensation bookkeeping: one range
// per sorted child of each side (lines 19/21 of Algorithm 2).
type sweepRanges struct {
	l, r []anchorRange
}

// sweepRun executes one bidirectional node expansion by plane sweep
// (the PlaneSweep / AggressivePlaneSweep / CompensatePlaneSweep
// procedures of Algorithms 1–3, unified) over the struct-of-arrays
// node layout: both sides are rtree.NodeSoA columns, so the merge
// loop, the axis-gap scans, and the distance kernels all read
// contiguous float64 slices.
//
// L and R must already be sorted per plan. The merge loop repeatedly
// takes the entry with the minimum sweep key as the anchor and scans
// the not-yet-anchored prefix-remainder of the opposite list in key
// order, breaking at the first candidate whose axis gap exceeds the
// axis cutoff. For each surviving candidate the real distance is
// computed (and counted) and held against the real-distance cutoff;
// only a candidate within it is materialized into entries and handed to
// emit, which does the queueing. Most candidates fail that filter, so
// it runs on the bare distance (pass), before anything is built.
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
// historical per-entry engine did and emit in the same candidate
// order, which is what keeps results and counters byte-identical.
//
// Compensation: when prev is non-nil the anchor scan skips the ranges
// examined by the earlier stage; when reexamine is additionally
// non-nil those ranges are revisited through it first (the AM-IDJ band
// case, where the real-distance cutoff has grown between stages).
type sweepRun struct {
	e          *expander
	L, R       *rtree.NodeSoA
	lObj, rObj bool // whether L / R entries are objects
	plan       sweep.Plan
	axisCutoff func() float64 // dynamic cutoff; nil selects the fixed batch path
	cutoff     float64        // fixed axis cutoff, valid when axisCutoff is nil
	realCutoff func() float64 // live real-distance cutoff; nil leaves realNow fixed
	realNow    float64        // the real-distance cutoff in force (see pass)
	emit       func(le, re rtree.NodeEntry, d float64)
	prev       *sweepRanges
	reexamine  func(le, re rtree.NodeEntry, d float64)
	record     bool
	out        sweepRanges
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

// pass is the sweep's real-distance filter: a candidate at real
// distance d is delivered unless d exceeds the cutoff in force.
func (s *sweepRun) pass(d float64) bool { return !(d > s.realNow) }

// refreshReal re-reads a live real-distance cutoff.
func (s *sweepRun) refreshReal() {
	if s.realCutoff != nil {
		s.realNow = s.realCutoff()
	}
}

// deliver materializes candidate m of o, which passed the filter at
// real distance d, in (left, right) orientation and hands it to fn.
func (s *sweepRun) deliver(fn func(le, re rtree.NodeEntry, d float64), fromL bool, anchor rtree.NodeEntry, o *rtree.NodeSoA, m int, d float64) {
	le, re := orientEntries(fromL, anchor, o.Entry(m))
	fn(le, re, d)
	s.refreshReal()
}

// run executes the sweep. When record is set, out holds the examined
// ranges afterwards.
func (s *sweepRun) run() {
	s.refreshReal()
	if s.record {
		s.out.l = makeEmptyRanges(s.L.Len(), s.R.Len())
		s.out.r = makeEmptyRanges(s.R.Len(), s.L.Len())
	}
	i, j := 0, 0
	nl, nr := s.L.Len(), s.R.Len()
	for i < nl && j < nr {
		kl := soaKey(s.L, i, s.plan)
		kr := soaKey(s.R, j, s.plan)
		if kl <= kr {
			s.sweepAnchor(true, i, j)
			i++
		} else {
			s.sweepAnchor(false, j, i)
			j++
		}
	}
}

// soaKey is sweep.Key read straight from the coordinate columns.
func soaKey(n *rtree.NodeSoA, i int, p sweep.Plan) float64 {
	if p.Dir == sweep.Forward {
		return n.Lo(p.Axis)[i]
	}
	return -n.Hi(p.Axis)[i]
}

// makeEmptyRanges initializes per-anchor ranges to empty-at-end, the
// correct value for entries that never become anchors (their pairs are
// all covered from the opposite side). The slices are freshly
// allocated on purpose: recorded ranges escape into long-lived
// compensation bookkeeping (compInfo), so they must not alias any
// reused scratch.
func makeEmptyRanges(n, otherLen int) []anchorRange {
	rs := make([]anchorRange, n)
	for i := range rs {
		rs[i] = anchorRange{from: int32(otherLen), to: int32(otherLen)}
	}
	return rs
}

// sweepAnchor processes one anchor: the entry at index ai on the given
// side, with oj the current consumption point of the opposite list.
func (s *sweepRun) sweepAnchor(fromL bool, ai, oj int) {
	var a, o *rtree.NodeSoA
	if fromL {
		a, o = s.L, s.R
	} else {
		a, o = s.R, s.L
	}
	anchor := a.Entry(ai)

	start := oj
	recFrom := oj
	if s.prev != nil {
		var pr anchorRange
		if fromL {
			pr = s.prev.l[ai]
		} else {
			pr = s.prev.r[ai]
		}
		if s.reexamine != nil {
			// Band mode: the earlier stage examined [pr.from, pr.to)
			// under a smaller real-distance cutoff; revisit them so
			// pairs in the grown band are recovered.
			s.scanBand(fromL, anchor, o, int(pr.from), int(pr.to))
		}
		if int(pr.to) > start {
			start = int(pr.to)
		}
		if int(pr.from) < recFrom {
			recFrom = int(pr.from)
		}
	}

	// The axis-gap scan reads one coordinate column: the candidates'
	// lower bounds against the anchor's upper bound for forward sweeps
	// (and mirrored for backward), exactly sweep.AxisGap unrolled.
	axis := s.plan.Axis
	forward := s.plan.Dir == sweep.Forward
	var base float64
	var col []float64
	if forward {
		base = anchor.Rect.Max(axis)
		col = o.Lo(axis)
	} else {
		base = anchor.Rect.Min(axis)
		col = o.Hi(axis)
	}
	n := o.Len()

	stop := start
	if s.axisCutoff == nil {
		// Fixed cutoff: find the whole candidate window first, then
		// compute its distances with one batch kernel call.
		cut := s.cutoff
		scanned := 0
		if forward {
			for m := start; m < n; m++ {
				scanned++
				g := col[m] - base
				if g < 0 {
					g = 0
				}
				if g > cut {
					break
				}
				stop = m + 1
			}
		} else {
			for m := start; m < n; m++ {
				scanned++
				g := base - col[m]
				if g < 0 {
					g = 0
				}
				if g > cut {
					break
				}
				stop = m + 1
			}
		}
		s.e.mc.AddAxisDist(int64(scanned))
		if stop > start {
			dst := s.e.distScratch(stop - start)
			geom.MinDistBatch(dst, anchor.Rect,
				o.MinX[start:stop], o.MinY[start:stop],
				o.MaxX[start:stop], o.MaxY[start:stop])
			s.e.mc.AddRealDist(int64(stop - start))
			for m := start; m < stop; m++ {
				if d := dst[m-start]; s.pass(d) {
					s.deliver(s.emit, fromL, anchor, o, m, d)
				}
			}
		}
	} else {
		// Dynamic cutoff: emissions tighten the window mid-scan, so
		// cutoff, distance, and emit stay interleaved per candidate.
		for m := start; m < n; m++ {
			s.e.mc.AddAxisDist(1)
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
			if d := s.e.minDist(orientRects(fromL, anchor.Rect, o.Rect(m))); s.pass(d) {
				s.deliver(s.emit, fromL, anchor, o, m, d)
			}
			stop = m + 1
		}
	}

	if s.record {
		r := anchorRange{from: int32(recFrom), to: int32(stop)}
		if r.to < r.from {
			r.to = r.from
		}
		if fromL {
			s.out.l[ai] = r
		} else {
			s.out.r[ai] = r
		}
	}
}

// scanBand revisits the previously examined candidate range
// [from, to) of one anchor through reexamine, batching the distance
// computations when the cutoff is fixed (the only mode band
// re-examination runs under).
func (s *sweepRun) scanBand(fromL bool, anchor rtree.NodeEntry, o *rtree.NodeSoA, from, to int) {
	if to <= from {
		return
	}
	if s.axisCutoff == nil {
		dst := s.e.distScratch(to - from)
		geom.MinDistBatch(dst, anchor.Rect,
			o.MinX[from:to], o.MinY[from:to], o.MaxX[from:to], o.MaxY[from:to])
		s.e.mc.AddRealDist(int64(to - from))
		for m := from; m < to; m++ {
			if d := dst[m-from]; s.pass(d) {
				s.deliver(s.reexamine, fromL, anchor, o, m, d)
			}
		}
		return
	}
	for m := from; m < to; m++ {
		if d := s.e.minDist(orientRects(fromL, anchor.Rect, o.Rect(m))); s.pass(d) {
			s.deliver(s.reexamine, fromL, anchor, o, m, d)
		}
	}
}

// orientEntries returns the pair in (left, right) orientation given
// which side the anchor came from.
func orientEntries(anchorFromL bool, anchor, other rtree.NodeEntry) (le, re rtree.NodeEntry) {
	if anchorFromL {
		return anchor, other
	}
	return other, anchor
}

// orientRects is orientEntries for the rectangles alone.
func orientRects(anchorFromL bool, anchor, other geom.Rect) (l, r geom.Rect) {
	if anchorFromL {
		return anchor, other
	}
	return other, anchor
}

// childPair builds the queue element for a candidate child pair.
func (s *sweepRun) childPair(le, re rtree.NodeEntry, d float64) hybridq.Pair {
	return hybridq.Pair{
		Dist:      d,
		LeftObj:   s.lObj,
		RightObj:  s.rObj,
		Left:      le.Ref,
		Right:     re.Ref,
		LeftRect:  le.Rect,
		RightRect: re.Rect,
	}
}

// expansion materializes both sides of a pair for sweeping: the child
// entries in SoA form, their kind, and the sweep plan (per-pair axis
// and direction selection of §3.2/§3.3, or the fixed policy for the
// ablation). The returned run is the expander's reusable scratch: it
// is valid until the expander's next expansion.
func (e *expander) expansion(p hybridq.Pair, cutoff float64) (*sweepRun, error) {
	return e.expansionWithPlan(p, e.c.choosePlan(p, cutoff))
}

// expansionWithPlan is expansion with a predetermined plan, used by the
// compensation stage to reproduce the stage-one sweep order exactly.
func (e *expander) expansionWithPlan(p hybridq.Pair, plan sweep.Plan) (*sweepRun, error) {
	c := e.c
	lObj, err := e.sideSorted(c.left, p.Left, p.LeftObj, p.LeftRect, &e.soaL, plan)
	if err != nil {
		return nil, err
	}
	rObj, err := e.sideSorted(c.right, p.Right, p.RightObj, p.RightRect, &e.soaR, plan)
	if err != nil {
		return nil, err
	}
	r := &e.run
	*r = sweepRun{e: e, L: &e.soaL, R: &e.soaR, lObj: lObj, rObj: rObj, plan: plan}
	return r, nil
}

// sideSorted is sideSoA with the entries in plan's sweep order. The
// order of a packed node under one plan never changes, so the tree
// memoizes it: the first expansion of a node sorts it exactly as every
// expansion used to and publishes the permutation; later ones decode
// the page straight into that order. Either way the page is fetched
// through the buffer pool and accounted once.
func (e *expander) sideSorted(tree *rtree.Tree, ref uint64, isObj bool, rect geom.Rect, dst *rtree.NodeSoA, plan sweep.Plan) (childIsObj bool, err error) {
	if isObj {
		dst.SetSingle(rect, ref)
		return true, nil
	}
	page, slot := refPage(ref), plan.Slot()
	ordered, err := tree.ReadNodeSoAOrdered(page, slot, dst, e.mc)
	if err != nil {
		return false, err
	}
	if !ordered {
		tree.PublishSweepOrder(page, slot, e.sorter.SortTracked(dst, plan))
	}
	stampChildLevels(dst)
	return dst.IsLeaf(), nil
}

// choosePlan applies the sweep policy.
func (c *execContext) choosePlan(p hybridq.Pair, cutoff float64) sweep.Plan {
	switch {
	case c.sweepPolicy.SelectAxis && c.sweepPolicy.SelectDirection:
		return sweep.Choose(p.LeftRect, p.RightRect, cutoff)
	case c.sweepPolicy.SelectAxis:
		plan := sweep.Choose(p.LeftRect, p.RightRect, cutoff)
		plan.Dir = sweep.Forward
		return plan
	case c.sweepPolicy.SelectDirection:
		return sweep.Plan{Axis: 0, Dir: sweep.ChooseDirection(p.LeftRect, p.RightRect, 0)}
	default:
		return sweep.Plan{Axis: 0, Dir: sweep.Forward}
	}
}
