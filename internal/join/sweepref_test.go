package join

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
	"distjoin/internal/pqueue"
	"distjoin/internal/rtree"
	"distjoin/internal/sweep"
)

// refEntry is one node entry in row-major form, what the reference
// sweep hands around.
type refEntry struct {
	Rect geom.Rect
	Ref  uint64
}

func entryAt(n *rtree.NodeSoA, i int) refEntry { return refEntry{Rect: n.Rect(i), Ref: n.Refs[i]} }

// refRange and refSweep are the plane sweep as it was before anchors
// were read from the columns and before a later stage re-derived what
// an earlier one examined: every anchor is materialised as a refEntry,
// candidates are handed on as entries, and every entry's examined range
// is recorded as int32s, pre-filled by makeEmptyRefRanges, for the next
// stage to resume from. Kept as the reference the column-reading sweep
// is compared against; nothing outside this file uses it.
type refRange struct{ from, to int32 }

type refRanges struct{ l, r []refRange }

type refSweep struct {
	L, R         *rtree.NodeSoA
	plan         sweep.Plan
	axisCutoff   func() float64
	cutoff       float64
	realCutoff   func() float64
	realNow      float64
	emit         func(le, re refEntry, d float64)
	prev         *refRanges
	reexamine    func(le, re refEntry, d float64)
	out          refRanges
	axisN, realN int64
}

func makeEmptyRefRanges(n, otherLen int) []refRange {
	rs := make([]refRange, n)
	for i := range rs {
		rs[i] = refRange{from: int32(otherLen), to: int32(otherLen)}
	}
	return rs
}

func (s *refSweep) pass(d float64) bool { return !(d > s.realNow) }

func (s *refSweep) refreshReal() {
	if s.realCutoff != nil {
		s.realNow = s.realCutoff()
	}
}

func (s *refSweep) deliver(fn func(le, re refEntry, d float64), fromL bool, anchor refEntry, o *rtree.NodeSoA, m int, d float64) {
	if fromL {
		fn(anchor, entryAt(o, m), d)
	} else {
		fn(entryAt(o, m), anchor, d)
	}
	s.refreshReal()
}

func refKey(n *rtree.NodeSoA, i int, p sweep.Plan) float64 {
	if p.Dir == sweep.Forward {
		return n.Lo(p.Axis)[i]
	}
	return -n.Hi(p.Axis)[i]
}

func (s *refSweep) run() {
	s.refreshReal()
	s.out.l = makeEmptyRefRanges(s.L.Len(), s.R.Len())
	s.out.r = makeEmptyRefRanges(s.R.Len(), s.L.Len())
	i, j := 0, 0
	nl, nr := s.L.Len(), s.R.Len()
	for i < nl && j < nr {
		if refKey(s.L, i, s.plan) <= refKey(s.R, j, s.plan) {
			s.sweepAnchor(true, i, j)
			i++
		} else {
			s.sweepAnchor(false, j, i)
			j++
		}
	}
}

func (s *refSweep) minDist(fromL bool, anchor, other geom.Rect) float64 {
	s.realN++
	if fromL {
		return anchor.MinDist(other)
	}
	return other.MinDist(anchor)
}

func (s *refSweep) sweepAnchor(fromL bool, ai, oj int) {
	a, o := s.L, s.R
	if !fromL {
		a, o = s.R, s.L
	}
	anchor := entryAt(a, ai)

	start := oj
	recFrom := oj
	if s.prev != nil {
		var pr refRange
		if fromL {
			pr = s.prev.l[ai]
		} else {
			pr = s.prev.r[ai]
		}
		if s.reexamine != nil {
			s.scanBand(fromL, anchor, o, int(pr.from), int(pr.to))
		}
		if int(pr.to) > start {
			start = int(pr.to)
		}
		if int(pr.from) < recFrom {
			recFrom = int(pr.from)
		}
	}

	axis := s.plan.Axis
	forward := s.plan.Dir == sweep.Forward
	base, col := anchor.Rect.Max(axis), o.Lo(axis)
	if !forward {
		base, col = anchor.Rect.Min(axis), o.Hi(axis)
	}
	gap := func(m int) float64 {
		g := col[m] - base
		if !forward {
			g = base - col[m]
		}
		if g < 0 {
			g = 0
		}
		return g
	}
	n := o.Len()

	stop := start
	if s.axisCutoff == nil {
		for m := start; m < n; m++ {
			s.axisN++
			if gap(m) > s.cutoff {
				break
			}
			stop = m + 1
		}
		if stop > start {
			dst := make([]float64, stop-start)
			geom.MinDistBatch(dst, anchor.Rect,
				o.MinX[start:stop], o.MinY[start:stop], o.MaxX[start:stop], o.MaxY[start:stop])
			s.realN += int64(stop - start)
			for m := start; m < stop; m++ {
				if d := dst[m-start]; s.pass(d) {
					s.deliver(s.emit, fromL, anchor, o, m, d)
				}
			}
		}
	} else {
		for m := start; m < n; m++ {
			s.axisN++
			if gap(m) > s.axisCutoff() {
				break
			}
			if d := s.minDist(fromL, anchor.Rect, o.Rect(m)); s.pass(d) {
				s.deliver(s.emit, fromL, anchor, o, m, d)
			}
			stop = m + 1
		}
	}

	r := refRange{from: int32(recFrom), to: int32(stop)}
	if r.to < r.from {
		r.to = r.from
	}
	if fromL {
		s.out.l[ai] = r
	} else {
		s.out.r[ai] = r
	}
}

func (s *refSweep) scanBand(fromL bool, anchor refEntry, o *rtree.NodeSoA, from, to int) {
	if to <= from {
		return
	}
	dst := make([]float64, to-from)
	geom.MinDistBatch(dst, anchor.Rect,
		o.MinX[from:to], o.MinY[from:to], o.MaxX[from:to], o.MaxY[from:to])
	s.realN += int64(to - from)
	for m := from; m < to; m++ {
		if d := dst[m-from]; s.pass(d) {
			s.deliver(s.reexamine, fromL, anchor, o, m, d)
		}
	}
}

// randomSweepNode returns a node of n entries in plan's sweep order.
// Coordinates sit on a coarse grid so that sweep keys, axis gaps and
// distances tie often.
func randomSweepNode(rng *rand.Rand, n int, plan sweep.Plan, refBase uint64) *rtree.NodeSoA {
	var s rtree.NodeSoA
	s.Reset(n)
	for i := 0; i < n; i++ {
		x, y := float64(rng.Intn(40)), float64(rng.Intn(40))
		s.MinX[i], s.MinY[i] = x, y
		s.MaxX[i], s.MaxY[i] = x+float64(rng.Intn(4)), y+float64(rng.Intn(4))
		s.Refs[i] = refBase + uint64(i)
	}
	var sorter sweep.SoASorter
	sorter.Sort(&s, plan)
	return &s
}

// delivered is one candidate as emit or reexamine saw it.
type delivered struct {
	pair      hybridq.Pair
	reexamine bool
}

// checkRederived requires the prefix a resumed sweep re-derives for
// every entry of L and R under the fixed axis cutoff cut to be the range
// rs recorded for it: from the entry's consumption point (the end of
// the opposite side for an entry that never became an anchor) to
// windowEnd.
func checkRederived(t *testing.T, tag string, L, R *rtree.NodeSoA, plan sweep.Plan, cut float64, rs refRanges) {
	t.Helper()
	var l, r sweepSide
	l.set(L, plan)
	r.set(R, plan)
	forward := plan.Dir == sweep.Forward
	for _, side := range []struct {
		name string
		a, o *sweepSide
		rs   []refRange
	}{{"l", &l, &r, rs.l}, {"r", &r, &l, rs.r}} {
		if len(side.rs) != len(side.a.base) {
			t.Fatalf("%s: %d %s ranges for %d entries", tag, len(side.rs), side.name, len(side.a.base))
		}
		for i, want := range side.rs {
			from := int(want.from)
			if to := windowEnd(side.o.key, side.a.base[i], from, cut, forward); to != int(want.to) {
				t.Fatalf("%s: %s entry %d re-derives [%d,%d) under cutoff %v, reference recorded [%d,%d)",
					tag, side.name, i, from, to, cut, want.from, want.to)
			}
		}
	}
}

// restrictRef is the restriction sweepRun.restrict applies, spelled
// with geom.Rect: n without the entries farther than the cutoff t (and
// the underflow floor) from bound on either axis, and the number of
// entries tested, which is none when no entry inside own can lie that
// far. An infinite cutoff tests nothing.
func restrictRef(n *rtree.NodeSoA, own, bound geom.Rect, t float64) (*rtree.NodeSoA, int64) {
	if math.IsInf(t, 1) {
		return n, 0
	}
	t = math.Max(t, 0x1p-500)
	far := false
	for axis := 0; axis < geom.Dims; axis++ {
		far = far || bound.Min(axis)-own.Min(axis) > t || own.Max(axis)-bound.Max(axis) > t
	}
	if !far {
		return n, 0
	}
	var out rtree.NodeSoA
	out.Reset(0)
	out.Level = n.Level
	for i := 0; i < n.Len(); i++ {
		r := n.Rect(i)
		if r.AxisDist(bound, 0) > t || r.AxisDist(bound, 1) > t {
			continue
		}
		out.MinX, out.MinY = append(out.MinX, r.MinX), append(out.MinY, r.MinY)
		out.MaxX, out.MaxY = append(out.MaxX, r.MaxX), append(out.MaxY, r.MaxY)
		out.Refs = append(out.Refs, n.Refs[i])
	}
	return &out, int64(n.Len())
}

// pairBound is the rectangle of the pair side a node expands: its
// entries' bounding rectangle (any rectangle for an empty node).
func pairBound(n *rtree.NodeSoA) geom.Rect {
	if n.Len() == 0 {
		return geom.Rect{}
	}
	return soaBounds(n)
}

// TestSweepMatchesEntryReference runs the column-reading sweep and the
// entry-materialising reference over random node pairs, for every plan,
// both cutoff forms and every compensation mode (band re-examination
// under the fixed cutoff only, the one AM-IDJ runs it under), and
// requires the same delivered sequence. The reference resumes from the ranges the earlier
// stage recorded; the sweep gets only that stage's cutoff and re-derives
// them, and the prefix it re-derives for every entry, never-anchored
// entries included, must be the range the reference recorded, for the
// earlier stage and for a fixed-cutoff later one alike.
//
// The sweep's sides are restricted to the entries that can pass under
// the cutoff it starts from, against its pair's rectangles
// (expander.restrict); the reference sweeps every entry. Its distance computation totals must be those of the
// reference run over the restricted nodes (restrictRef) plus one axis
// computation per entry tested, and that run must deliver the same
// sequence too. Half the live-cutoff runs start from a full distance
// queue, so that their restriction has a finite cutoff to apply. In
// trial 0 both pair rectangles are the whole plane: nothing can be
// dropped, nothing is tested, and the totals are the reference's.
func TestSweepMatchesEntryReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	const k = 12 // distance-queue bound of the live cutoffs
	inf := math.Inf(1)
	dropped := 0
	for trial := 0; trial < 60; trial++ {
		for _, plan := range benchPlans {
			// Sizes include the empty node and the one-entry object side.
			sizes := []int{0, 1, 1 + rng.Intn(8), 20 + rng.Intn(40)}
			nl, nr := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
			L := randomSweepNode(rng, nl, plan, 1000)
			R := randomSweepNode(rng, nr, plan, 2000)
			lObj, rObj := nl == 1, rng.Intn(2) == 0
			first, second := float64(1+rng.Intn(6)), float64(6+rng.Intn(10))
			lBound, rBound := pairBound(L), pairBound(R)
			if trial == 0 {
				lBound = geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
				rBound = lBound
			}
			// The live cutoffs of odd trials start full at prefill.
			prefill := inf
			if trial%2 == 1 {
				prefill = float64(4 + trial%9)
			}

			for _, live := range []bool{false, true} {
				for _, mode := range []string{"fresh", "prev", "prev+reexamine"} {
					if live && mode == "prev+reexamine" {
						continue // band re-examination runs under a fixed cutoff only
					}
					tag := fmt.Sprintf("trial %d %v live=%v %s (%dx%d)", trial, plan, live, mode, nl, nr)
					newQueue := func() *pqueue.DistanceQueue {
						q := pqueue.NewDistanceQueue(k)
						for i := 0; i < k && !math.IsInf(prefill, 1); i++ {
							q.Insert(prefill)
						}
						return q
					}

					// An earlier fixed-cutoff stage on nodes l and r supplies
					// the ranges a reference over them resumes from.
					earlier := func(l, r *rtree.NodeSoA) *refRanges {
						if mode == "fresh" {
							return nil
						}
						stage := refSweep{L: l, R: r, plan: plan, cutoff: first, realNow: first,
							emit: func(le, re refEntry, d float64) {}}
						stage.run()
						return &stage.out
					}
					prev := earlier(L, R)
					if prev != nil {
						checkRederived(t, tag+" earlier stage", L, R, plan, first, *prev)
					}

					// reference sweeps nodes l and r, resuming from prev.
					reference := func(l, r *rtree.NodeSoA, prev *refRanges, want *[]delivered) *refSweep {
						refQ := newQueue()
						ref := &refSweep{L: l, R: r, plan: plan, prev: prev}
						refKeep := func(reex bool) func(le, re refEntry, d float64) {
							return func(le, re refEntry, d float64) {
								*want = append(*want, delivered{reexamine: reex, pair: hybridq.Pair{
									Dist: d, LeftObj: lObj, RightObj: rObj,
									Left: le.Ref, Right: re.Ref, LeftRect: le.Rect, RightRect: re.Rect}})
								refQ.Insert(d)
							}
						}
						ref.emit = refKeep(false)
						if mode == "prev+reexamine" {
							ref.reexamine = refKeep(true)
						}
						if live {
							ref.axisCutoff, ref.realCutoff = refQ.Cutoff, refQ.Cutoff
						} else {
							ref.cutoff, ref.realNow = second, second
						}
						ref.run()
						return ref
					}

					var want []delivered
					ref := reference(L, R, prev, &want)
					if !live {
						checkRederived(t, tag, L, R, plan, second, ref.out)
					}

					// The reference over the restricted nodes, for the totals.
					startCutoff := second
					if live {
						startCutoff = prefill
					}
					rl, lTests := restrictRef(L, lBound, rBound, startCutoff)
					rr, rTests := restrictRef(R, rBound, lBound, startCutoff)
					dropped += L.Len() - rl.Len() + R.Len() - rr.Len()
					var wantRestricted []delivered
					restricted := reference(rl, rr, earlier(rl, rr), &wantRestricted)
					if len(wantRestricted) != len(want) {
						t.Fatalf("%s: the reference delivers %d candidates from the restricted nodes, %d from the whole", tag, len(wantRestricted), len(want))
					}
					for i := range want {
						if wantRestricted[i] != want[i] {
							t.Fatalf("%s: delivery %d from the restricted nodes is\n %+v, from the whole\n %+v", tag, i, wantRestricted[i], want[i])
						}
					}
					wantAxis, wantReal := restricted.axisN+lTests+rTests, restricted.realN
					if trial == 0 && (wantAxis != ref.axisN || wantReal != ref.realN) {
						t.Fatalf("%s: whole-plane rectangles restrict: %d axis and %d real distance computations, unrestricted %d and %d",
							tag, wantAxis, wantReal, ref.axisN, ref.realN)
					}

					var got []delivered
					var mc metrics.Collector
					q := newQueue()
					e := &expander{mc: &mc}
					run := &sweepRun{e: e, plan: plan}
					e.restrict(run, L, R, lBound, rBound, startCutoff)
					run.pair.LeftObj, run.pair.RightObj = lObj, rObj
					keep := func(reex bool) func(p *hybridq.Pair) bool {
						return func(p *hybridq.Pair) bool {
							got = append(got, delivered{pair: *p, reexamine: reex})
							q.Insert(p.Dist)
							return len(got)%3 != 0 // acceptance must not steer the sweep
						}
					}
					run.emit = keep(false)
					if mode == "prev+reexamine" {
						run.reexamine = keep(true)
					}
					if live {
						run.liveCutoff(q.Cutoff)
					} else {
						run.fixCutoff(second)
					}
					if prev != nil {
						run.resume(first)
					}
					run.run()

					if len(got) != len(want) {
						t.Fatalf("%s: delivered %d candidates, reference %d", tag, len(got), len(want))
					}
					accepted := int64(0)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: delivery %d is\n %+v, reference\n %+v", tag, i, got[i], want[i])
						}
						if (i+1)%3 != 0 {
							accepted++
						}
					}
					if run.children != accepted {
						t.Errorf("%s: run counted %d accepted candidates, emit accepted %d", tag, run.children, accepted)
					}
					if mc.AxisDistCalcs != wantAxis || mc.RealDistCalcs != wantReal {
						t.Errorf("%s: %d axis and %d real distance computations, reference %d and %d",
							tag, mc.AxisDistCalcs, mc.RealDistCalcs, wantAxis, wantReal)
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no run restricted anything; the test does not exercise the restriction")
	}
	t.Logf("%d entries restricted away", dropped)
}
