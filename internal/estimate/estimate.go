// Package estimate implements the maximum-distance estimation of paper
// §4.3: the closed-form initial estimate of eDmax for a stopping
// cardinality k (Eq. 3), and the arithmetic (Eq. 4) and geometric
// (Eq. 5) adaptive corrections applied mid-query.
package estimate

import (
	"fmt"
	"math"

	"distjoin/internal/geom"
)

// Model captures the uniform-density model of §4.3 for one join: the
// per-pair density factor rho = area(R ∩ S) / (pi * |R| * |S|), where
// the intersection is of the two data sets' bounding rectangles.
type Model struct {
	rho float64
}

// NewModel builds the density model for joining a data set of
// cardinality nr bounded by boundsR with one of cardinality ns bounded
// by boundsS. When the bounding rectangles do not overlap, the model
// degenerates; the joint bounding box is used instead so estimates stay
// finite (the paper assumes overlapping uniform sets).
func NewModel(boundsR geom.Rect, nr int, boundsS geom.Rect, ns int) (Model, error) {
	if nr <= 0 || ns <= 0 {
		return Model{}, fmt.Errorf("estimate: cardinalities must be positive, got %d and %d", nr, ns)
	}
	area := 0.0
	if inter, ok := boundsR.Intersection(boundsS); ok {
		area = inter.Area()
	}
	if area <= 0 {
		// Disjoint or degenerate overlap: fall back to the union box so
		// rho stays positive. Degenerate inputs (all points collinear)
		// still produce rho = 0; Initial handles that by returning 0,
		// which AM-KDJ treats as a maximally aggressive estimate that
		// the compensation stage corrects.
		area = boundsR.Union(boundsS).Area()
	}
	return Model{rho: area / (math.Pi * float64(nr) * float64(ns))}, nil
}

// Rho returns the density factor of the model.
func (m Model) Rho() float64 { return m.rho }

// Initial returns the Eq. 3 estimate of the distance within which
// about k object pairs lie: eDmax = sqrt(k * rho).
func (m Model) Initial(k int) float64 {
	if k <= 0 {
		return 0
	}
	return math.Sqrt(float64(k) * m.rho)
}

// CorrectArithmetic returns the Eq. 4 correction: given that k0 pairs
// have been produced and the k0-th pair's distance is dK0, estimate
// the distance of the k-th pair as sqrt(dK0^2 + (k-k0)*rho).
func (m Model) CorrectArithmetic(k, k0 int, dK0 float64) float64 {
	if k <= k0 {
		return dK0
	}
	d2 := dK0*dK0 + float64(k-k0)*m.rho
	if math.IsInf(d2, 1) {
		// dK0^2 (or the correction term) overflowed even though the
		// true result is representable: recompute overflow-free as
		// hypot(dK0, sqrt((k-k0)*rho)). Kept off the common path so
		// in-range estimates stay bit-identical to the direct formula
		// (the deterministic benchmark counters depend on it).
		return math.Hypot(dK0, math.Sqrt(float64(k-k0)*m.rho))
	}
	return math.Sqrt(d2)
}

// CorrectGeometric returns the Eq. 5 correction:
// dK0 * sqrt(k / k0). It requires dK0 > 0 and k0 > 0; otherwise it
// falls back to the arithmetic correction, as the paper prescribes
// ("if Dmax(k0) != 0").
func (m Model) CorrectGeometric(k, k0 int, dK0 float64) float64 {
	if k0 <= 0 || dK0 <= 0 {
		return m.CorrectArithmetic(k, k0, dK0)
	}
	if k <= k0 {
		return dK0
	}
	return dK0 * math.Sqrt(float64(k)/float64(k0))
}

// Mode selects how the two corrections are combined (§4.3.2: "compute
// eDmax' in both ways, then choose the minimum if the query processing
// needs to err on the aggressive side; otherwise the maximum").
type Mode int

const (
	// Aggressive takes the minimum of the two corrections: tighter
	// pruning, more likely to need compensation.
	Aggressive Mode = iota
	// Conservative takes the maximum: looser pruning, compensation
	// rarely needed.
	Conservative
	// ArithmeticOnly uses Eq. 4 alone (exposed for the A3 ablation).
	ArithmeticOnly
	// GeometricOnly uses Eq. 5 alone (exposed for the A3 ablation).
	GeometricOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Aggressive:
		return "aggressive"
	case Conservative:
		return "conservative"
	case ArithmeticOnly:
		return "arithmetic"
	case GeometricOnly:
		return "geometric"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Correct combines the arithmetic and geometric corrections per mode.
func (m Model) Correct(mode Mode, k, k0 int, dK0 float64) float64 {
	switch mode {
	case ArithmeticOnly:
		return m.CorrectArithmetic(k, k0, dK0)
	case GeometricOnly:
		return m.CorrectGeometric(k, k0, dK0)
	case Conservative:
		return math.Max(m.CorrectArithmetic(k, k0, dK0), m.CorrectGeometric(k, k0, dK0))
	default: // Aggressive
		return math.Min(m.CorrectArithmetic(k, k0, dK0), m.CorrectGeometric(k, k0, dK0))
	}
}
