package geom

import (
	"encoding/binary"
	"math"
	"testing"
)

// batchMinDistAt wraps the batch kernels as a scalar (a, b) MinDist
// so the shared partition-boundary table can drive them: b is
// embedded at position idx of an n-wide SoA column set whose other
// lanes hold decoy rectangles, and the kernel result for that lane is
// returned. Running every boundary case through a mid-slice lane (not
// a one-element batch) is what actually exercises the vector path.
func batchColumns(b Rect, n, idx int) (minX, minY, maxX, maxY []float64) {
	minX = make([]float64, n)
	minY = make([]float64, n)
	maxX = make([]float64, n)
	maxY = make([]float64, n)
	for i := 0; i < n; i++ {
		d := float64(i) * 17.5
		minX[i], minY[i], maxX[i], maxY[i] = d, -d, d+1, -d+1
	}
	minX[idx], minY[idx], maxX[idx], maxY[idx] = b.MinX, b.MinY, b.MaxX, b.MaxY
	return minX, minY, maxX, maxY
}

func batchMinDistAt(a, b Rect, n, idx int) float64 {
	minX, minY, maxX, maxY := batchColumns(b, n, idx)
	dst := make([]float64, n)
	MinDistBatch(dst, a, minX, minY, maxX, maxY)
	return dst[idx]
}

func batchMinDistSqAt(a, b Rect, n, idx int) float64 {
	minX, minY, maxX, maxY := batchColumns(b, n, idx)
	dst := make([]float64, n)
	MinDistSqBatch(dst, a, minX, minY, maxX, maxY)
	return dst[idx]
}

// TestPartitionBoundaryBatch runs the batch kernels through the same
// partition-boundary table as the scalar Rect methods: the scalar and
// batch paths must agree exactly on touching and overlapping
// partition boundaries, or a pruning decision would depend on which
// path computed the bound.
func TestPartitionBoundaryBatch(t *testing.T) {
	shapes := []struct {
		name   string
		n, idx int
	}{
		{"single", 1, 0},
		{"first", 7, 0},
		{"middle", 7, 3},
		{"last", 7, 6},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			checkBoundaryMinDist(t,
				func(a, b Rect) float64 { return batchMinDistAt(a, b, sh.n, sh.idx) },
				func(a, b Rect) float64 { return batchMinDistSqAt(a, b, sh.n, sh.idx) },
			)
		})
	}
}

// TestBatchKernelsAllocs pins the hot-path contract: with a
// caller-provided destination the kernels allocate nothing, so the
// leaf-pair refinement loops stay allocation-free per pair. Sits
// alongside TestTraceOffNoAllocs / TestRegistryOffNoAllocs as the
// steady-state allocation gates.
func TestBatchKernelsAllocs(t *testing.T) {
	const n = 128
	q := NewRect(3, 4, 5, 6)
	minX, minY, maxX, maxY := batchColumns(NewRect(0, 0, 1, 1), n, n/2)
	dst := make([]float64, n)
	if avg := testing.AllocsPerRun(100, func() {
		MinDistSqBatch(dst, q, minX, minY, maxX, maxY)
	}); avg != 0 {
		t.Errorf("MinDistSqBatch allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		MinDistBatch(dst, q, minX, minY, maxX, maxY)
	}); avg != 0 {
		t.Errorf("MinDistBatch allocates %v per call, want 0", avg)
	}
}

// FuzzBatchKernels is the differential fuzz target of the batch
// kernels: for arbitrary rectangle slices — including NaN, ±Inf,
// inverted intervals, and degenerate zero-area rects — the batch
// results must be bit-identical (Float64bits, so NaN payloads and
// signed zeros count) to the scalar MinDistSq/MinDist applied
// element-wise.
func FuzzBatchKernels(f *testing.F) {
	le := binary.LittleEndian
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			le.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	// Query rect + one lane of ordinary geometry.
	f.Add(1.0, 2.0, 3.0, 4.0, mk(0, 0, 1, 1))
	// NaN coordinates in both the query and a lane.
	f.Add(nan, 0.0, 1.0, 1.0, mk(0, nan, 1, 1, 2, 2, 3, 3))
	// Infinities and an inverted (Max < Min) interval.
	f.Add(0.0, 0.0, inf, 1.0, mk(5, 5, -5, -5, -inf, 0, inf, 0))
	// Degenerate points, signed zero.
	f.Add(0.0, math.Copysign(0, -1), 0.0, 0.0, mk(0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, qa, qb, qc, qd float64, raw []byte) {
		n := len(raw) / 32 // four float64 per lane
		if n > 256 {
			n = 256
		}
		q := Rect{MinX: qa, MinY: qb, MaxX: qc, MaxY: qd}
		minX := make([]float64, n)
		minY := make([]float64, n)
		maxX := make([]float64, n)
		maxY := make([]float64, n)
		for i := 0; i < n; i++ {
			minX[i] = math.Float64frombits(le.Uint64(raw[32*i:]))
			minY[i] = math.Float64frombits(le.Uint64(raw[32*i+8:]))
			maxX[i] = math.Float64frombits(le.Uint64(raw[32*i+16:]))
			maxY[i] = math.Float64frombits(le.Uint64(raw[32*i+24:]))
		}
		lane := func(i int) Rect {
			return Rect{MinX: minX[i], MinY: minY[i], MaxX: maxX[i], MaxY: maxY[i]}
		}

		dst := make([]float64, n)
		MinDistSqBatch(dst, q, minX, minY, maxX, maxY)
		for i := 0; i < n; i++ {
			if want := q.MinDistSq(lane(i)); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("MinDistSqBatch lane %d/%d: %x, scalar %x (q=%v lane=%v)",
					i, n, math.Float64bits(dst[i]), math.Float64bits(want), q, lane(i))
			}
		}
		MinDistBatch(dst, q, minX, minY, maxX, maxY)
		for i := 0; i < n; i++ {
			if want := q.MinDist(lane(i)); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("MinDistBatch lane %d/%d: %x, scalar %x (q=%v lane=%v)",
					i, n, math.Float64bits(dst[i]), math.Float64bits(want), q, lane(i))
			}
			// Symmetry: the join's orientation normalization relies on
			// MinDist(a, b) == MinDist(b, a) bit-for-bit. That only holds
			// for non-inverted intervals (an inverted Max < Min rect
			// measures its gap from different endpoints per order, and no
			// such rect survives rtree validation), so restrict the
			// assertion to valid operands; NaN coordinates are fine — both
			// orders collapse to a zero axis gap.
			valid := func(r Rect) bool {
				return !(r.MaxX < r.MinX) && !(r.MaxY < r.MinY)
			}
			if rev := lane(i).MinDist(q); valid(q) && valid(lane(i)) &&
				math.Float64bits(dst[i]) != math.Float64bits(rev) {
				t.Fatalf("MinDist asymmetric at lane %d: %x vs %x", i, math.Float64bits(dst[i]), math.Float64bits(rev))
			}
		}
	})
}
