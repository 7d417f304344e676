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
// revisits [.from,.to) under a grown cutoff. The indices are uint16
// because a node never holds more than rtree.MaxNodeEntries entries:
// the page header stores the entry count in sixteen bits.
type anchorRange struct {
	from, to uint16
}

// sweepRanges is the per-expansion compensation bookkeeping: one range
// per sorted child of each side (lines 19/21 of Algorithm 2).
type sweepRanges struct {
	l, r []anchorRange
}

// sweepSide is one side of a run with its columns picked by the plan's
// axis and direction once, so that no step of the sweep re-derives them.
type sweepSide struct {
	n         *rtree.NodeSoA
	key       []float64     // orders this side's entries; the other side's anchors measure gaps to it
	base      []float64     // an anchor of this side measures its gaps from it
	prev, out []anchorRange // this side's half of sweepRun.prev and .out
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
// counts those in children. The run never allocates range storage: a
// caller that wants the examined ranges hands it two slices of the
// sides' lengths through recordInto and owns them afterwards.
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
// historical per-entry engine did — summed locally and added to the
// collector once per run — and emit in the same candidate order, which
// is what keeps results and counters byte-identical.
//
// Compensation: when prev is non-nil the anchor scan skips the ranges
// examined by the earlier stage; when reexamine is additionally
// non-nil those ranges are revisited through it first (the AM-IDJ band
// case, where the real-distance cutoff has grown between stages). prev
// and the recordInto storage may be the same slices: every anchor's
// previous range is read before its new one is written.
type sweepRun struct {
	e          *expander
	L, R       *rtree.NodeSoA
	plan       sweep.Plan
	axisCutoff func() float64 // dynamic cutoff; nil selects the fixed batch path
	cutoff     float64        // fixed axis cutoff, valid when axisCutoff is nil
	realCutoff func() float64 // live real-distance cutoff; nil leaves realNow fixed
	realNow    float64        // the real-distance cutoff in force (see pass)
	emit       func(p *hybridq.Pair) bool
	prev       *sweepRanges
	reexamine  func(p *hybridq.Pair) bool
	record     bool        // out is caller storage to write (see recordInto)
	out        sweepRanges // the examined ranges, when record is set
	children   int64       // candidates emit or reexamine accepted

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

// recordInto makes the run write every entry's examined range into rs,
// which the caller owns: rs.l and rs.r must have the lengths of L and R.
// Every element is written exactly once — anchors as they are swept,
// entries that never become anchors after the merge loop — so rs need
// not be initialized.
func (s *sweepRun) recordInto(rs sweepRanges) {
	s.record, s.out = true, rs
}

// newRanges allocates range storage for this run's two sides in one
// block, for the caller whose bookkeeping is not slab-backed (AM-IDJ's
// first expansion of a pair).
func (s *sweepRun) newRanges() sweepRanges {
	nl := s.L.Len()
	buf := make([]anchorRange, nl+s.R.Len())
	return sweepRanges{l: buf[:nl:nl], r: buf[nl:]}
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
	p := &s.pair
	p.Dist = d
	p.Left, p.Right = s.L.Refs[li], s.R.Refs[ri]
	p.LeftRect, p.RightRect = s.L.Rect(li), s.R.Rect(ri)
	if fn(p) {
		s.children++
	}
	s.refreshReal()
}

// set points the side at n with its columns picked by plan: a forward
// sweep orders by lower bounds and measures gaps from an anchor's upper
// bound to the candidates' lower bounds; a backward sweep mirrors both.
func (sd *sweepSide) set(n *rtree.NodeSoA, plan sweep.Plan, prev, out []anchorRange) {
	sd.n, sd.prev, sd.out = n, prev, out
	if plan.Dir == sweep.Forward {
		sd.key, sd.base = n.Lo(plan.Axis), n.Hi(plan.Axis)
	} else {
		sd.key, sd.base = n.Hi(plan.Axis), n.Lo(plan.Axis)
	}
}

// run executes the sweep. When record is set, out holds the examined
// ranges afterwards.
func (s *sweepRun) run() {
	s.refreshReal()
	nl, nr := s.L.Len(), s.R.Len()
	var prev sweepRanges
	if s.prev != nil {
		prev = *s.prev
	}
	if s.record && (len(s.out.l) != nl || len(s.out.r) != nr || max(nl, nr) > rtree.MaxNodeEntries) {
		panic("join: range storage does not fit the expansion")
	}
	s.left.set(s.L, s.plan, prev.l, s.out.l)
	s.right.set(s.R, s.plan, prev.r, s.out.r)
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
	if s.record {
		// Entries that never became anchors: their pairs are all covered
		// from the opposite side, so their range is empty-at-end.
		fillEmptyRanges(s.out.l[i:], nr)
		fillEmptyRanges(s.out.r[j:], nl)
	}
	s.e.mc.AddAxisDist(s.axisN)
	s.e.mc.AddRealDist(s.realN)
	s.axisN, s.realN = 0, 0
}

// fillEmptyRanges sets rs to the empty range at the end of an opposite
// list of otherLen entries.
func fillEmptyRanges(rs []anchorRange, otherLen int) {
	end := anchorRange{from: uint16(otherLen), to: uint16(otherLen)}
	for i := range rs {
		rs[i] = end
	}
}

// sweepAnchor processes one anchor: entry ai of side a, with oj the
// current consumption point of the opposite side o. fromL tells which
// of the two is the left side.
func (s *sweepRun) sweepAnchor(a, o *sweepSide, fromL bool, ai, oj int) {
	start := oj
	recFrom := oj
	if s.prev != nil {
		pr := a.prev[ai]
		if s.reexamine != nil {
			// Band mode: the earlier stage examined [pr.from, pr.to)
			// under a smaller real-distance cutoff; revisit them so
			// pairs in the grown band are recovered.
			s.scanBand(a, o, fromL, ai, int(pr.from), int(pr.to))
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
	// (and mirrored for backward).
	forward := s.plan.Dir == sweep.Forward
	base := a.base[ai]
	col := o.key
	n := len(col)

	stop := start
	if s.axisCutoff == nil {
		// Fixed cutoff: find the whole candidate window first, then
		// compute its distances with one batch kernel call.
		cut := s.cutoff
		if forward {
			for ; stop < n; stop++ {
				g := col[stop] - base
				if g < 0 {
					g = 0
				}
				if g > cut {
					break
				}
			}
		} else {
			for ; stop < n; stop++ {
				g := base - col[stop]
				if g < 0 {
					g = 0
				}
				if g > cut {
					break
				}
			}
		}
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
	} else {
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
			stop = m + 1
		}
	}

	if s.record {
		to := stop
		if to < recFrom {
			to = recFrom
		}
		a.out[ai] = anchorRange{from: uint16(recFrom), to: uint16(to)}
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
