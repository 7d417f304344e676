package estimate

import (
	"fmt"
	"math"

	"distjoin/internal/geom"
)

// Estimator produces and corrects estimates of the k-th nearest pair
// distance. Model (the paper's uniform Eq. 3-5), Histogram (the §6
// future-work direction for non-uniform data) and Exact (an oracle)
// implement it.
type Estimator interface {
	// Initial estimates the distance of the k-th nearest pair.
	Initial(k int) float64
	// Correct revises the estimate mid-query given that k0 pairs have
	// been produced and the k0-th pair's distance is dK0.
	Correct(mode Mode, k, k0 int, dK0 float64) float64
}

// Model implements Estimator.
var _ Estimator = Model{}

// Exact is the estimator that knows the answer: the join's true pair
// distances in nondecreasing order, at least one of them. Initial(k)
// and every correction return the k-th, or the last for a k past the
// end. AM-IDJ run with it is Figure 15's "real Dmax" variant, the bound
// no estimator can beat.
type Exact []float64

// Initial returns the k-th true distance.
func (e Exact) Initial(k int) float64 { return e[min(max(k, 1), len(e))-1] }

// Correct returns the k-th true distance, whatever has been produced.
func (e Exact) Correct(_ Mode, k, _ int, _ float64) float64 { return e.Initial(k) }

// Histogram estimates join selectivity from per-cell object counts on
// a g x g grid over the join area — the paper's §6 future work for
// skewed data, where the uniform model systematically overestimates
// eDmax (§4.3, confirmed in §5.4). The expected number of pairs within
// distance d is accumulated over occupied cell pairs with a monotone
// quadratic ramp between each cell pair's minimum and maximum
// distances; the k-th pair distance is then found by bisection.
type Histogram struct {
	bounds geom.Rect
	g      int
	left   []float64
	right  []float64
	nLeft  float64
	nRight float64
	// occupied cell indices, for sparse iteration
	leftCells  []int
	rightCells []int
	maxDist    float64
}

// NewHistogram returns an empty histogram over bounds with a g x g
// grid. g must be at least 1; bounds must have positive area for the
// grid to discriminate (degenerate bounds degrade to a single cell).
func NewHistogram(bounds geom.Rect, g int) (*Histogram, error) {
	if g < 1 {
		return nil, fmt.Errorf("estimate: histogram grid %d < 1", g)
	}
	return &Histogram{
		bounds:  bounds,
		g:       g,
		left:    make([]float64, g*g),
		right:   make([]float64, g*g),
		maxDist: bounds.MaxDist(bounds),
	}, nil
}

// Grid returns the grid dimension.
func (h *Histogram) Grid() int { return h.g }

// AddLeft registers one left-side object by its MBR center.
func (h *Histogram) AddLeft(r geom.Rect) {
	h.left[h.cellOf(r)]++
	h.nLeft++
}

// AddRight registers one right-side object by its MBR center.
func (h *Histogram) AddRight(r geom.Rect) {
	h.right[h.cellOf(r)]++
	h.nRight++
}

func (h *Histogram) cellOf(r geom.Rect) int {
	c := r.Center()
	ix, iy := 0, 0
	if w := h.bounds.Side(0); w > 0 {
		ix = int((c.X - h.bounds.MinX) / w * float64(h.g))
	}
	if w := h.bounds.Side(1); w > 0 {
		iy = int((c.Y - h.bounds.MinY) / w * float64(h.g))
	}
	ix = clampIdx(ix, h.g)
	iy = clampIdx(iy, h.g)
	return iy*h.g + ix
}

func clampIdx(i, g int) int {
	if i < 0 {
		return 0
	}
	if i >= g {
		return g - 1
	}
	return i
}

// seal caches the occupied-cell lists; called lazily before estimates.
func (h *Histogram) seal() {
	if h.leftCells != nil || h.nLeft == 0 {
		return
	}
	for i, v := range h.left {
		if v > 0 {
			h.leftCells = append(h.leftCells, i)
		}
	}
	for i, v := range h.right {
		if v > 0 {
			h.rightCells = append(h.rightCells, i)
		}
	}
}

// cellRect returns the rectangle of cell i.
func (h *Histogram) cellRect(i int) geom.Rect {
	ix, iy := i%h.g, i/h.g
	w := h.bounds.Side(0) / float64(h.g)
	ht := h.bounds.Side(1) / float64(h.g)
	x := h.bounds.MinX + float64(ix)*w
	y := h.bounds.MinY + float64(iy)*ht
	return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + ht}
}

// ExpectedPairs returns the estimated number of object pairs within
// distance d. The function is nondecreasing in d, reaching
// nLeft*nRight at the diameter of the bounds.
func (h *Histogram) ExpectedPairs(d float64) float64 {
	h.seal()
	if d < 0 {
		return 0
	}
	var total float64
	for _, i := range h.leftCells {
		ri := h.cellRect(i)
		ni := h.left[i]
		for _, j := range h.rightCells {
			rj := h.cellRect(j)
			minD := ri.MinDist(rj)
			if minD > d {
				continue
			}
			maxD := ri.MaxDist(rj)
			frac := 1.0
			if maxD > minD && d < maxD {
				// Quadratic ramp: the captured fraction of a cell pair
				// grows roughly with the area of a disc of radius
				// (d - minD) relative to the cell span.
				t := (d - minD) / (maxD - minD)
				frac = t * t
			}
			total += ni * h.right[j] * frac
		}
	}
	return total
}

// Initial implements Estimator: the distance d with about k expected
// pairs inside, found by bisection (ExpectedPairs is monotone).
func (h *Histogram) Initial(k int) float64 {
	if k <= 0 || h.nLeft == 0 || h.nRight == 0 {
		return 0
	}
	target := float64(k)
	lo, hi := 0.0, h.maxDist
	if hi == 0 {
		return 0
	}
	for iter := 0; iter < 60 && hi-lo > hi*1e-9; iter++ {
		mid := (lo + hi) / 2
		if h.ExpectedPairs(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Correct implements Estimator: the geometric extrapolation of Eq. 5
// from the observed k0-th distance, combined per mode with the
// histogram's own absolute estimate for k.
func (h *Histogram) Correct(mode Mode, k, k0 int, dK0 float64) float64 {
	if k <= k0 {
		return dK0
	}
	absolute := h.Initial(k)
	if k0 <= 0 || dK0 <= 0 {
		return absolute
	}
	geometric := dK0 * math.Sqrt(float64(k)/float64(k0))
	switch mode {
	case ArithmeticOnly:
		return absolute
	case GeometricOnly:
		return geometric
	case Conservative:
		return math.Max(absolute, geometric)
	default: // Aggressive
		return math.Min(absolute, geometric)
	}
}

var _ Estimator = (*Histogram)(nil)
