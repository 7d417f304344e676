// Package hybridq implements the hybrid memory/disk priority queue of
// paper §4.4 used as the main queue of every distance join algorithm.
// The queue keeps a bounded min-heap of the shortest-distance pairs in
// memory and spills longer-distance pairs to unsorted on-disk segment
// piles whose boundaries come from the uniform density model of §4.3
// (boundary i at sqrt(i*n*rho) for an n-element memory heap). When the
// heap drains, the lowest segment is swapped back in; when it
// overflows, it splits and the long half is spilled.
package hybridq

import (
	"encoding/binary"
	"math"

	"distjoin/internal/geom"
)

// Pair is one main-queue element: a pair of R-tree nodes and/or
// objects with their minimum distance. Left and Right carry a page ID
// for node sides and an object ID for object sides.
type Pair struct {
	// Dist is the (minimum MBR) distance between the two sides.
	Dist float64
	// LeftObj / RightObj report whether each side is an object rather
	// than an R-tree node.
	LeftObj, RightObj bool
	// Left and Right identify each side: page ID for nodes, object ID
	// for objects.
	Left, Right uint64
	// LeftRect and RightRect are the sides' MBRs.
	LeftRect, RightRect geom.Rect
	// Refined marks an <object,object> pair whose Dist has been
	// replaced by the exact geometry distance by a refiner (see
	// join.Options.Refiner). Unrefined object pairs carry the MBR
	// lower-bound distance.
	Refined bool
}

// IsResult reports whether the pair is an <object, object> pair, i.e.
// a producible query result.
func (p *Pair) IsResult() bool { return p.LeftObj && p.RightObj }

// PairLess is the one definition of the main-queue order: by distance
// with a deterministic tie-break, expandable (non-result) pairs before
// results, then by identifiers. It takes pointers so that the heap, the
// split and reload sorts and SJ-SORT order 104-byte pairs without
// copying them.
//
// Draining expandable pairs first at a tied distance makes the
// emission order among ties canonical: a result at distance d can
// reach the queue head only after every node pair with distance <= d
// has been expanded — at which point every distance-d result that will
// ever exist is already queued, and they pop in identifier order. The
// order is therefore a pure function of the data, independent of
// insertion timing: every algorithm returns the same pairs in the same
// order for a given index, whatever the queue budget, spill pattern or
// sweep policy. (The cost: at a heavily tied distance — typically 0,
// overlapping MBRs — all tied node pairs are expanded before the first
// tied result is emitted.)
//
//lint:allow floatcmp bit-exact distance tie-break IS the determinism contract: one output order for a given index
func PairLess(a, b *Pair) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	ar, br := a.IsResult(), b.IsResult()
	if ar != br {
		return br
	}
	if a.Left != b.Left {
		return a.Left < b.Left
	}
	return a.Right < b.Right
}

// RecordSize is the fixed on-disk encoding size of a Pair.
const RecordSize = 8 + 8 + 8 + 8 + 8*8 // dist, flags, left, right, two rects

const (
	flagLeftObj  = 1 << 0
	flagRightObj = 1 << 1
	flagRefined  = 1 << 2
)

// Encode serializes p into buf (at least RecordSize bytes).
func (p Pair) Encode(buf []byte) { p.encode(buf) }

// DecodePair parses a Pair previously written by Encode.
func DecodePair(buf []byte) Pair { return decodePair(buf) }

// encode serializes p into buf (at least RecordSize bytes).
func (p *Pair) encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(p.Dist))
	var flags uint64
	if p.LeftObj {
		flags |= flagLeftObj
	}
	if p.RightObj {
		flags |= flagRightObj
	}
	if p.Refined {
		flags |= flagRefined
	}
	binary.LittleEndian.PutUint64(buf[8:], flags)
	binary.LittleEndian.PutUint64(buf[16:], p.Left)
	binary.LittleEndian.PutUint64(buf[24:], p.Right)
	putRect(buf[32:], p.LeftRect)
	putRect(buf[64:], p.RightRect)
}

// decodePair parses a Pair from buf.
func decodePair(buf []byte) Pair {
	flags := binary.LittleEndian.Uint64(buf[8:])
	return Pair{
		Dist:      math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
		LeftObj:   flags&flagLeftObj != 0,
		RightObj:  flags&flagRightObj != 0,
		Refined:   flags&flagRefined != 0,
		Left:      binary.LittleEndian.Uint64(buf[16:]),
		Right:     binary.LittleEndian.Uint64(buf[24:]),
		LeftRect:  getRect(buf[32:]),
		RightRect: getRect(buf[64:]),
	}
}

func putRect(buf []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.MaxY))
}

func getRect(buf []byte) geom.Rect {
	return geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
	}
}
