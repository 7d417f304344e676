package rtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/geom"
)

// nodeOf returns rects, taken as they are (NaN and inverted ones
// included), as a node.
func nodeOf(rects []geom.Rect) *NodeSoA {
	var n NodeSoA
	n.Reset(len(rects))
	for i, r := range rects {
		n.MinX[i], n.MinY[i], n.MaxX[i], n.MaxY[i] = r.MinX, r.MinY, r.MaxX, r.MaxY
	}
	return &n
}

// checkOccupancy requires that the grid of rects misses q only when no
// rect intersects q, and reports whether it missed.
func checkOccupancy(t *testing.T, rects []geom.Rect, q geom.Rect) bool {
	t.Helper()
	g := OccupancyOf(nodeOf(rects))
	if !g.Misses(q) {
		return false
	}
	for i, e := range rects {
		if e.Intersects(q) {
			t.Fatalf("the grid %+v of %d entries misses %v, yet entry %d, %v, intersects it", g, len(rects), q, i, e)
		}
	}
	return true
}

// TestOccupancyMissesNoEntry runs checkOccupancy over random nodes whose
// coordinates sit on a coarse grid (entries touch and share cell
// edges), with infinite coordinates, zero-width and subnormal extents,
// duplicate entries and one-entry nodes mixed in, against random query
// rectangles, inverted and infinite ones included.
func TestOccupancyMissesNoEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(4101))
	inf := math.Inf(1)
	coord := func(tiny bool) float64 {
		if tiny {
			return float64(rng.Intn(9)) * 0x1p-1070
		}
		switch rng.Intn(20) {
		case 0:
			return inf
		case 1:
			return -inf
		}
		return float64(rng.Intn(33)) / 4
	}
	rect := func(tiny bool) geom.Rect {
		return geom.NewRect(coord(tiny), coord(tiny), coord(tiny), coord(tiny))
	}
	missed := 0
	for trial := 0; trial < 20000; trial++ {
		tiny := rng.Intn(8) == 0
		rects := make([]geom.Rect, 1+rng.Intn(12))
		for i := range rects {
			if i > 0 && rng.Intn(6) == 0 {
				rects[i] = rects[rng.Intn(i)]
				continue
			}
			rects[i] = rect(tiny)
			if rng.Intn(5) == 0 {
				rects[i].MaxX = rects[i].MinX
			}
		}
		q := rect(tiny)
		if rng.Intn(10) == 0 {
			q.MinX, q.MaxX = q.MaxX, q.MinX
		}
		if checkOccupancy(t, rects, q) {
			missed++
		}
	}
	if missed < 1000 {
		t.Fatalf("the grids missed only %d of 20000 queries; the test checks little", missed)
	}
}

// TestOccupancyShapes pins the grid on hand-made nodes: an empty node
// misses every ordered query, a node with an entry no Builder writes or
// with an infinite extent misses none, and a finite node misses the
// cells its entries leave empty and nothing its entries touch.
func TestOccupancyShapes(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	everywhere := geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
	if g := OccupancyOf(nodeOf(nil)); !g.Misses(geom.NewRect(0, 0, 1, 1)) {
		t.Fatal("an empty node's grid does not miss the unit square")
	}
	for _, rects := range [][]geom.Rect{
		{{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1}},
		{{MinX: 2, MinY: 0, MaxX: 1, MaxY: 1}, geom.NewRect(5, 5, 6, 6)},
		{geom.NewRect(0, 0, 1, 1), geom.NewRect(0, 0, inf, 1)},
		{geom.NewRect(-math.MaxFloat64, 0, -math.MaxFloat64, 0), geom.NewRect(math.MaxFloat64, 0, math.MaxFloat64, 0)},
	} {
		g := OccupancyOf(nodeOf(rects))
		if g.bits != ^uint64(0) {
			t.Fatalf("%v: grid %+v, want the full grid", rects, g)
		}
		for _, q := range []geom.Rect{geom.NewRect(100, 100, 101, 101), everywhere, geom.NewRect(-3, -3, -2, -2)} {
			if g.Misses(q) {
				t.Fatalf("%v: the full grid misses %v", rects, q)
			}
		}
	}
	// Two unit squares at opposite corners of an 8x8 box: cells (0,0)
	// and (7,7) only.
	corners := []geom.Rect{geom.NewRect(0, 0, 0.5, 0.5), geom.NewRect(7.5, 7.5, 8, 8)}
	g := OccupancyOf(nodeOf(corners))
	if want := uint64(1) | 1<<63; g.bits != want {
		t.Fatalf("corner squares: bits %#x, want %#x", g.bits, want)
	}
	for _, tc := range []struct {
		q    geom.Rect
		miss bool
	}{
		{geom.NewRect(3, 3, 5, 5), true},          // the empty middle
		{geom.NewRect(0.9, 0.9, 1.5, 1.5), false}, // shares cell (0,0)
		{geom.NewRect(-5, -5, -1, -1), true},      // before the box
		{geom.NewRect(20, 20, 30, 30), true},      // far past it
		{geom.NewRect(8, 8, 8.01, 8.01), false},   // touches the far corner
		{geom.NewRect(0.5, 0.5, 0.5, 0.5), false}, // touches the near square
		{everywhere, false},
		{geom.Rect{MinX: 5, MinY: 3, MaxX: 3, MaxY: 5}, false}, // inverted: never claimed
		{geom.Rect{MinX: nan, MinY: 3, MaxX: 5, MaxY: 5}, false},
	} {
		if got := g.Misses(tc.q); got != tc.miss {
			t.Fatalf("corner squares, query %v: misses %v, want %v", tc.q, got, tc.miss)
		}
		checkOccupancy(t, corners, tc.q)
	}
}

// FuzzOccupancy is checkOccupancy as a fuzz target: the query is the
// four float64 arguments as they come, the entries four float64s each
// of raw, as they come too (NaN, inverted and infinite ones included).
func FuzzOccupancy(f *testing.F) {
	le := binary.LittleEndian
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			le.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	inf := math.Inf(1)
	// Two corners of a box and a query in its empty middle.
	f.Add(3.0, 3.0, 5.0, 5.0, mk(0, 0, 1, 1, 7, 7, 8, 8))
	// A one-entry node, and the query touching it at its far corner.
	f.Add(8.0, 8.0, 9.0, 9.0, mk(7, 7, 8, 8))
	// Infinite coordinates: a strip and a point at infinity.
	f.Add(0.0, 0.0, 1.0, 1.0, mk(-inf, 2, 5, 3, inf, inf, inf, inf))
	// Zero-width extent along x, and duplicate entries.
	f.Add(2.0, -1.0, 2.0, 0.5, mk(2, 0, 2, 1, 2, 0, 2, 1, 2, 3, 2, 4))
	// Subnormal extents, and a query between subnormal entries.
	f.Add(0x1p-1072, 0.0, 0x1p-1072, 0x1p-1074, mk(0, 0, 0x1p-1074, 0x1p-1074, 0x1p-1073, 0x1p-1073, 0x1p-1072, 0x1p-1072, 0x1p-1071, 0x1p-1071, 0x1p-1070, 0x1p-1070))
	// The widest finite box, whose width overflows.
	f.Add(0.0, 0.0, 1.0, 1.0, mk(-math.MaxFloat64, 0, -math.MaxFloat64, 0, math.MaxFloat64, 0, math.MaxFloat64, 0))
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1 float64, raw []byte) {
		var rects []geom.Rect
		for len(raw) >= 32 && len(rects) < 64 {
			rects = append(rects, geom.Rect{
				MinX: math.Float64frombits(le.Uint64(raw[0:])), MinY: math.Float64frombits(le.Uint64(raw[8:])),
				MaxX: math.Float64frombits(le.Uint64(raw[16:])), MaxY: math.Float64frombits(le.Uint64(raw[24:])),
			})
			raw = raw[32:]
		}
		checkOccupancy(t, rects, geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
	})
}
