package geom

import "math"

// Batch distance kernels. The struct-of-arrays leaf layout
// (rtree.NodeSoA) stores node MBRs as four parallel coordinate slices;
// these kernels compute one fixed rectangle's distance against every
// slice element in a single pass over contiguous float64 memory. Each
// kernel is bit-identical to its scalar reference (MinDistSq, MinDist
// applied element-wise): the same IEEE operations in the same
// order, so NaN, ±Inf, and signed-zero inputs produce exactly the
// scalar results. FuzzBatchKernels pins that equivalence.
//
// The `_ = dst[n-1]` statements hoist the slice bounds checks out of
// the loops: after one explicit check against the final index, the
// compiler proves every in-loop access in range and drops the per-
// element checks.

// MinDistSqBatch writes into dst[i] the squared minimum Euclidean
// distance between q and the rectangle [minX[i],maxX[i]] x
// [minY[i],maxY[i]]. It is the batch form of Rect.MinDistSq. All five
// slices must have equal length.
func MinDistSqBatch(dst []float64, q Rect, minX, minY, maxX, maxY []float64) {
	n := len(minX)
	if n == 0 {
		return
	}
	_ = dst[n-1]
	_ = minY[n-1]
	_ = maxX[n-1]
	_ = maxY[n-1]
	for i := 0; i < n; i++ {
		dx := 0.0
		switch {
		case q.MaxX < minX[i]:
			dx = minX[i] - q.MaxX
		case maxX[i] < q.MinX:
			dx = q.MinX - maxX[i]
		}
		dy := 0.0
		switch {
		case q.MaxY < minY[i]:
			dy = minY[i] - q.MaxY
		case maxY[i] < q.MinY:
			dy = q.MinY - maxY[i]
		}
		dst[i] = dx*dx + dy*dy
	}
	mutateBatchTail(dst)
}

// MinDistBatch writes into dst[i] the minimum Euclidean distance
// between q and the i-th rectangle: Sqrt of MinDistSqBatch, the batch
// form of Rect.MinDist.
func MinDistBatch(dst []float64, q Rect, minX, minY, maxX, maxY []float64) {
	MinDistSqBatch(dst, q, minX, minY, maxX, maxY)
	for i := range dst {
		dst[i] = math.Sqrt(dst[i])
	}
}
