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
// results, then by identifiers. It takes pointers so that SJ-SORT and
// the reference orders compare 104-byte pairs without copying them; the
// queue's own heap and split sort compare 32-byte keys (keyLess), and
// both share one comparison body, ordered.
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
func PairLess(a, b *Pair) bool {
	return ordered(a.Dist, b.Dist, a.IsResult(), b.IsResult(), a.Left, b.Left, a.Right, b.Right)
}

// ordered is the comparison body of PairLess and keyLess: whether the
// pair (ad, ares, al, ar) orders before (bd, bres, bl, br).
//
//lint:allow floatcmp bit-exact distance tie-break IS the determinism contract: one output order for a given index
func ordered(ad, bd float64, ares, bres bool, al, bl, ar, br uint64) bool {
	if ad != bd {
		return ad < bd
	}
	if ares != bres {
		return bres
	}
	if al != bl {
		return al < bl
	}
	return ar < br
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

// flags packs the pair's three booleans into the record's flag bits.
func (p *Pair) flags() uint32 {
	return uint32(b2i(p.LeftObj))*flagLeftObj | uint32(b2i(p.RightObj))*flagRightObj | uint32(b2i(p.Refined))*flagRefined
}

// encode serializes p into buf (at least RecordSize bytes).
func (p *Pair) encode(buf []byte) {
	putRecord(buf, p.Dist, p.flags(), p.Left, p.Right, &p.LeftRect, &p.RightRect)
}

// decodePair parses a Pair from buf.
func decodePair(buf []byte) Pair {
	var p Pair
	var k key
	k.decode(buf, &p.LeftRect, &p.RightRect)
	k.assemble(&p)
	return p
}

// assemble writes the pair k stands for into *p, all but the
// rectangles.
func (k *key) assemble(p *Pair) {
	p.Dist, p.Left, p.Right = k.Dist, k.Left, k.Right
	p.LeftObj = k.flags&flagLeftObj != 0
	p.RightObj = k.flags&flagRightObj != 0
	p.Refined = k.flags&flagRefined != 0
}

// encode writes k, with its rectangles r, as one record.
func (k *key) encode(buf []byte, r *rectPair) {
	putRecord(buf, k.Dist, k.flags, k.Left, k.Right, &r.left, &r.right)
}

// decode reads a record into k, all but its slot, and its rectangles
// into lr and rr.
func (k *key) decode(buf []byte, lr, rr *geom.Rect) {
	k.Dist = math.Float64frombits(binary.LittleEndian.Uint64(buf[0:]))
	k.flags = uint32(binary.LittleEndian.Uint64(buf[8:])) & (flagLeftObj | flagRightObj | flagRefined)
	k.Left = binary.LittleEndian.Uint64(buf[16:])
	k.Right = binary.LittleEndian.Uint64(buf[24:])
	getRect(buf[32:], lr)
	getRect(buf[64:], rr)
}

// putRecord writes one RecordSize record, the one layout a Pair and a
// key with its slab entry are both encoded in.
func putRecord(buf []byte, dist float64, flags uint32, left, right uint64, lr, rr *geom.Rect) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(dist))
	binary.LittleEndian.PutUint64(buf[8:], uint64(flags))
	binary.LittleEndian.PutUint64(buf[16:], left)
	binary.LittleEndian.PutUint64(buf[24:], right)
	putRect(buf[32:], lr)
	putRect(buf[64:], rr)
}

func putRect(buf []byte, r *geom.Rect) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.MaxY))
}

func getRect(buf []byte, r *geom.Rect) {
	r.MinX = math.Float64frombits(binary.LittleEndian.Uint64(buf[0:]))
	r.MinY = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	r.MaxX = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
	r.MaxY = math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))
}
