// Package sweep implements the optimized plane-sweep machinery of
// paper §3: selecting a sweeping axis by the "sweeping index" metric
// (Eq. 2, with the closed forms of Table 1 generalized to every node
// configuration), selecting a sweeping direction from the projected
// intervals (§3.3), and sorting a node's entries into the chosen sweep
// order (soa.go).
//
// Choose receives the restriction region, not the expanded pair's own
// rectangles: a join sweeps only the entries that lie within its cutoff
// of the other side's rectangle, so it passes each side's rectangle
// clipped to the other's grown by that cutoff (Clip), and the plan is
// chosen for the entries the sweep will meet.
package sweep

import (
	"math"

	"distjoin/internal/geom"
)

// Direction is the plane-sweep scan direction along the chosen axis.
type Direction int

const (
	// Forward scans child nodes in increasing coordinate order.
	Forward Direction = iota
	// Backward scans child nodes in decreasing coordinate order.
	Backward
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// Plan holds a sweeping decision for one node pair.
type Plan struct {
	Axis int
	Dir  Direction
}

// Slot numbers the four plans 0..3 (axis-major, forward before
// backward): the key under which rtree.Tree memoizes a node's order for
// this plan. It reads the plan the way the sorters do — any axis but 0
// is Y, any direction but Backward is forward — so two plans share a
// slot exactly when they sort a node identically.
func (p Plan) Slot() int {
	slot := 0
	if p.Axis != 0 {
		slot = 2
	}
	if p.Dir == Backward {
		slot++
	}
	return slot
}

// SlotPlan is the plan of slot, one of 0..3: the inverse of Slot.
func SlotPlan(slot int) Plan {
	return Plan{Axis: slot >> 1, Dir: Direction(slot & 1)}
}

// Choose returns the sweeping plan for expanding the node pair (r, s)
// under the pruning cutoff: the axis minimizing the sweeping index and
// the direction determined by the projected intervals. A non-finite or
// non-positive cutoff degenerates the index, so axis selection falls
// back to the wider combined extent (sweeping the more spread-out
// dimension, the same intuition with no window).
func Choose(r, s geom.Rect, cutoff float64) Plan {
	axis := 0
	if math.IsInf(cutoff, 1) || cutoff <= 0 {
		// Without a meaningful window the index is constant/degenerate;
		// prefer the axis with the larger combined spread, where axis
		// pruning will engage soonest once a cutoff materializes.
		if combinedSpan(r, s, 1) > combinedSpan(r, s, 0) {
			axis = 1
		}
	} else {
		best := math.Inf(1)
		for a := 0; a < geom.Dims; a++ {
			if idx := Index(a, r, s, cutoff); idx < best {
				best = idx
				axis = a
			}
		}
	}
	return Plan{Axis: axis, Dir: ChooseDirection(r, s, axis)}
}

// Clip returns own ∩ (other ⊕ margin): own with each bound moved in to
// other's, grown by margin, where that is tighter. A bound of other ⊕
// margin that is NaN (an infinite bound grown by an opposed infinite
// margin) moves nothing. A join passes the rectangles of an expanded
// pair, each clipped to the region in which its restriction keeps
// entries, to Choose.
func Clip(own, other geom.Rect, margin float64) geom.Rect {
	if b := other.MinX - margin; b > own.MinX {
		own.MinX = b
	}
	if b := other.MinY - margin; b > own.MinY {
		own.MinY = b
	}
	if b := other.MaxX + margin; b < own.MaxX {
		own.MaxX = b
	}
	if b := other.MaxY + margin; b < own.MaxY {
		own.MaxY = b
	}
	return own
}

func combinedSpan(r, s geom.Rect, axis int) float64 {
	lo := fmin(r.Min(axis), s.Min(axis))
	hi := fmax(r.Max(axis), s.Max(axis))
	return hi - lo
}

// fmin is math.Min, special cases and all: -Inf if either argument is
// -Inf, else NaN if either is NaN, and -0 of ±0 and -0. On amd64
// math.Min calls an assembly routine the compiler cannot inline; the
// sweeping index takes dozens of minima per expansion, so it uses this
// instead, which inlines and decides ordered arguments in two compares.
func fmin(x, y float64) float64 {
	switch {
	//lint:allow floatcmp math.Min's own special case: equal arguments, of which only ±0 differ in bits
	case x < y, x == y && math.Signbit(x), x < -math.MaxFloat64:
		return x
	case y <= x, y < -math.MaxFloat64:
		return y
	}
	return math.NaN()
}

// fmax is math.Max the way fmin is math.Min: +Inf if either argument is
// +Inf, else NaN if either is NaN, and +0 of ±0 and +0.
func fmax(x, y float64) float64 {
	switch {
	//lint:allow floatcmp math.Max's own special case: equal arguments, of which only ±0 differ in bits
	case x > y, x == y && !math.Signbit(x), x > math.MaxFloat64:
		return x
	case y >= x, y > math.MaxFloat64:
		return y
	}
	return math.NaN()
}

// ChooseDirection implements §3.3: project both nodes onto the axis;
// of the three consecutive intervals the projections induce, compare
// the left and the right one. A shorter left interval means the close
// endpoints meet early in a forward scan, so forward is chosen;
// otherwise backward.
func ChooseDirection(r, s geom.Rect, axis int) Direction {
	left := math.Abs(r.Min(axis) - s.Min(axis))
	right := math.Abs(r.Max(axis) - s.Max(axis))
	if left <= right {
		return Forward
	}
	return Backward
}

// Index computes the sweeping index of Eq. 2 for the given axis: a
// normalized estimate of how many child pairs a plane sweep with
// window cutoff must compute real distances for. Smaller is better.
//
// The first term integrates, over window positions t spanning r's
// projection, the fraction of s's extent covered by the window
// [t, t+cutoff]; the second term is symmetric. Both terms reduce to
// closed piecewise-quadratic forms (Table 1 covers the disjoint case);
// integrateWindowOverlap evaluates them exactly for every
// configuration, including overlapping and degenerate (zero-extent)
// projections.
func Index(axis int, r, s geom.Rect, cutoff float64) float64 {
	r0, r1 := r.Min(axis), r.Max(axis)
	s0, s1 := s.Min(axis), s.Max(axis)
	return normalizedTerm(cutoff, r0, r1, s0, s1) + normalizedTerm(cutoff, s0, s1, r0, r1)
}

// normalizedTerm evaluates one integral term of Eq. 2 as the expected
// *fraction* of (a-anchor, b-candidate) child pairs whose axis distance
// falls within the window: the window slides with its left endpoint
// over [a0, a1] and the overlap with [b0, b1] is accumulated,
// normalized by both side lengths (anchors are spread with density
// 1/|a| along a's projection, candidates with density 1/|b|). The
// per-unit-anchor normalization is implicit in Eq. 2's prose — without
// it the index would scale with |a| and rank axes incorrectly.
//
// When b is degenerate the overlap fraction is the 0/1 indicator of
// hitting the point; when a is degenerate the integral collapses to
// the single window position.
func normalizedTerm(d, a0, a1, b0, b1 float64) float64 {
	if d <= 0 {
		return 0
	}
	alen := a1 - a0
	blen := b1 - b0
	if alen == 0 {
		// Single window position [a0, a0+d].
		if blen == 0 {
			if a0 <= b0 && b0 <= a0+d {
				return 1
			}
			return 0
		}
		return overlapLen(a0, a0+d, b0, b1) / blen
	}
	if blen == 0 {
		// Indicator integral: measure of {u in [a0,a1] : u <= b0 <= u+d},
		// i.e. the length of [b0-d, b0] clipped to [a0, a1].
		return overlapLen(a0, a1, b0-d, b0) / alen
	}
	return integrateWindowOverlap(d, a0, a1, b0, b1) / (alen * blen)
}

// overlapLen returns the length of [x0,x1] ∩ [y0,y1], or 0.
func overlapLen(x0, x1, y0, y1 float64) float64 {
	lo := fmax(x0, y0)
	hi := fmin(x1, y1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// integrateWindowOverlap computes
//
//	∫_{a0}^{a1} len([u, u+d] ∩ [b0, b1]) du
//
// exactly. The integrand f(u) = max(0, min(u+d, b1) - max(u, b0)) is
// continuous and piecewise linear with breakpoints at b0-d, b1-d, b0,
// and b1, so integrating each linear piece with the trapezoid rule is
// exact. These are the closed forms of Table 1, generalized.
//
// Choose runs this four times per node expansion, so the six
// breakpoints are sorted in place on the stack and the integrand is
// written out twice instead of called. The sort is sort.Float64s's at
// this length — a stable insertion sort, NaNs first — and the pieces are
// summed in the same order, so every value is bit-identical to the
// slice-and-closure form the test file keeps as the reference.
func integrateWindowOverlap(d, a0, a1, b0, b1 float64) float64 {
	br := [6]float64{a0, a1, b0 - d, b1 - d, b0, b1}
	for i := 1; i < len(br); i++ {
		for j := i; j > 0 && (br[j] < br[j-1] || (math.IsNaN(br[j]) && !math.IsNaN(br[j-1]))); j-- {
			br[j], br[j-1] = br[j-1], br[j]
		}
	}
	var total float64
	for i := 0; i < len(br)-1; i++ {
		lo := fmax(br[i], a0)
		hi := fmin(br[i+1], a1)
		if hi <= lo {
			continue
		}
		flo := fmin(lo+d, b1) - fmax(lo, b0)
		if flo < 0 {
			flo = 0
		}
		fhi := fmin(hi+d, b1) - fmax(hi, b0)
		if fhi < 0 {
			fhi = 0
		}
		total += (flo + fhi) / 2 * (hi - lo)
	}
	return total
}
