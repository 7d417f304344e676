package rtree

import (
	"math"

	"distjoin/internal/geom"
)

// gridCells is the side of an occupancy grid: 8 columns by 8 rows, one
// bit per cell, fit one word.
const gridCells = 8

// Occupancy is a node's occupancy grid: the bounding box of its entries
// cut into 8 columns and 8 rows, and one bit per cell, bit cy*8+cx, set
// when some entry touches the cell. It lets a caller find out that no
// entry of the node intersects a rectangle (Misses) without reading the
// entries, or even decoding the page.
//
// A coordinate v maps to the cell index of (v - min) * scale, clamped to
// [0, 7] as a float and only then converted. Subtracting a finite min,
// multiplying by a positive finite scale, clamping and truncating are
// each monotone, so the index is: an entry that intersects a rectangle
// along an axis shares a cell index with it there, and an entry that
// intersects it on both axes sets a bit the rectangle's cells cover.
//
// A node whose box is not finite, or too wide for its width to be a
// float64, or that has an entry with a NaN or an inverted interval, has
// the full grid: every bit set and a zero scale, which misses nothing.
type Occupancy struct {
	minX, minY     float64 // the box's lower corner
	scaleX, scaleY float64 // 8 over the box's width and height (see scaleOf)
	bits           uint64
}

// OccupancyOf returns n's grid. A node of no entries has no bit set, so
// its grid misses every rectangle that is neither NaN nor inverted.
func OccupancyOf(n *NodeSoA) Occupancy {
	full := Occupancy{bits: ^uint64(0)}
	if n.Len() == 0 {
		return Occupancy{}
	}
	minX, minY, maxX, maxY := n.MinX, n.MinY[:len(n.MinX)], n.MaxX[:len(n.MinX)], n.MaxY[:len(n.MinX)]
	x0, y0, x1, y1 := minX[0], minY[0], maxX[0], maxY[0]
	for i := range minX {
		if !validEntry(minX[i], minY[i], maxX[i], maxY[i]) {
			return full
		}
		//lint:allow floatcmp validEntry has just ruled out a NaN in the entry, and the box starts from a valid one
		x0, y0 = min(x0, minX[i]), min(y0, minY[i])
		//lint:allow floatcmp validEntry has just ruled out a NaN in the entry, and the box starts from a valid one
		x1, y1 = max(x1, maxX[i]), max(y1, maxY[i])
	}
	w, h := x1-x0, y1-y0
	if !(-math.MaxFloat64 <= x0 && w <= math.MaxFloat64 && -math.MaxFloat64 <= y0 && h <= math.MaxFloat64) {
		return full // an infinite box, or one whose width overflows
	}
	g := Occupancy{minX: x0, minY: y0, scaleX: scaleOf(w), scaleY: scaleOf(h)}
	for i := range minX {
		g.bits |= g.cover(minX[i], minY[i], maxX[i], maxY[i])
	}
	return g
}

// scaleOf returns the scale of an axis whose box has finite width w:
// 8/w, or 1 when that is not finite (w zero or subnormal), so that every
// entry lies in the axis's first cell. A positive finite scale never
// makes a NaN of a coordinate that is not one, and the box's far end
// maps to at most 8 times 1 plus two roundings.
func scaleOf(w float64) float64 {
	if s := gridCells / w; s <= math.MaxFloat64 {
		return s
	}
	return 1
}

// cover returns the bits of the cells that the rectangle [x0, x1] x
// [y0, y1], neither NaN nor inverted, touches.
func (g *Occupancy) cover(x0, y0, x1, y1 float64) uint64 {
	return cells((x0-g.minX)*g.scaleX, (y0-g.minY)*g.scaleY, (x1-g.minX)*g.scaleX, (y1-g.minY)*g.scaleY)
}

// Misses reports whether no entry of the node intersects q (closed
// rectangles, as geom.Rect.Intersects), judged from the grid alone. It
// reports false when it cannot tell, and always for a NaN or inverted q.
// Beside the cells, it misses a q that lies before the box's lower end
// along an axis, or far enough past its upper end that the scaled
// coordinate exceeds 9, beyond any rounding of the end's own 8.
func (g *Occupancy) Misses(q geom.Rect) bool {
	x0, x1 := (q.MinX-g.minX)*g.scaleX, (q.MaxX-g.minX)*g.scaleX
	y0, y1 := (q.MinY-g.minY)*g.scaleY, (q.MaxY-g.minY)*g.scaleY
	if !(x0 <= x1 && y0 <= y1) {
		return false
	}
	return x1 < 0 || y1 < 0 || x0 > 9 || y0 > 9 || g.bits&cells(x0, y0, x1, y1) == 0
}

// cells returns the bits of the cells from column cell(x0) to cell(x1)
// and row cell(y0) to cell(y1), given scaled coordinates with x0 <= x1
// and y0 <= y1: the column span as one byte, copied to every row, and
// the row span as whole bytes. A shift by 64 is 0 in Go, so the last row
// needs no case of its own.
func cells(x0, y0, x1, y1 float64) uint64 {
	cols := uint64(2)<<cell(x1) - uint64(1)<<cell(x0)
	rows := uint64(1)<<(8*cell(y1)+8) - uint64(1)<<(8*cell(y0))
	return cols * 0x0101010101010101 & rows
}

// cell is the index of the column or row of scaled coordinate f:
// clamped to [0, 7] as a float, then truncated. f must not be NaN.
func cell(f float64) uint {
	//lint:allow floatcmp no NaN reaches it: Misses rules out a NaN query, and a grid's entries and scale make none
	return uint(int(min(max(f, 0), gridCells-1)))
}

// validEntry is the rule keyError applies to one entry: both intervals
// ordered, which no NaN is.
func validEntry(minX, minY, maxX, maxY float64) bool {
	return minX <= maxX && minY <= maxY
}
