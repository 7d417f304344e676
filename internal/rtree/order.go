package rtree

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"distjoin/internal/metrics"
	"distjoin/internal/storage"
)

// SweepSlots is the number of sweep orders memoized per node: two axes
// times two directions. The mapping from a sweep plan to a slot belongs
// to the caller (sweep.Plan.Slot); this package stores opaque
// permutations keyed by slot.
const SweepSlots = 4

// sweepOrder is one node's entry permutation for one slot: position i
// of the ordered node holds page entry narrow[i] (or wide[i]). Exactly
// one slice is set — byte indices when the node has at most 256
// entries, which covers every page size up to 10 KB. It is immutable
// once published.
type sweepOrder struct {
	narrow []uint8
	wide   []uint16
}

func (o *sweepOrder) len() int { return len(o.narrow) + len(o.wide) }

// fits reports whether o permutes exactly the entries page holds. Every
// index in o is below its length (PublishSweepOrder checks), so a
// fitting order never reads past the page's entries.
func (o *sweepOrder) fits(page []byte) bool {
	return len(page) >= nodeHeaderSize &&
		o.len() == int(binary.LittleEndian.Uint16(page[2:])) &&
		o.len() <= PageCapacity(len(page))
}

// newOrderMemo sizes the memo table for a store: one pointer per
// (page, slot), all nil until a query first orders that node.
func newOrderMemo(store storage.Store) []atomic.Pointer[sweepOrder] {
	return make([]atomic.Pointer[sweepOrder], SweepSlots*store.NumPages())
}

// orderSlot returns the memo cell for (id, slot), or nil when either is
// out of the table's range (a ref decoded from a damaged page).
func (t *Tree) orderSlot(id storage.PageID, slot int) *atomic.Pointer[sweepOrder] {
	i := int(id)*SweepSlots + slot
	if slot < 0 || slot >= SweepSlots || i >= len(t.orders) {
		return nil
	}
	return &t.orders[i]
}

// ReadNodeSoAOrdered is ReadNodeSoA for a plane sweep: the same page
// fetch through the buffer pool and the same metrics accounting, but
// when the node's sweep order for slot has been published the entries
// are decoded directly into that order. ordered reports that dst needs
// no sort (a memo hit, or fewer than two entries); otherwise dst is in
// page order and the caller sorts it and publishes the permutation with
// PublishSweepOrder. A memoized permutation whose length disagrees with
// the page's entry count is ignored, not trusted.
func (t *Tree) ReadNodeSoAOrdered(id storage.PageID, slot int, dst *NodeSoA, mc *metrics.Collector) (ordered bool, err error) {
	page, err := t.fetchNode(id, mc)
	if err != nil {
		return false, err
	}
	if cell := t.orderSlot(id, slot); cell != nil {
		if o := cell.Load(); o != nil && o.fits(page) {
			dst.Level = int(binary.LittleEndian.Uint16(page[0:]))
			dst.Reset(o.len())
			if o.narrow != nil {
				decodeOrdered(page, dst, o.narrow)
			} else {
				decodeOrdered(page, dst, o.wide)
			}
			return true, nil
		}
	}
	if err := decodeNodeSoA(page, dst); err != nil {
		return false, err
	}
	return dst.Len() < 2, nil
}

// decodeOrdered is decodeNodeSoA's loop reading page entry perm[i] into
// position i. The caller has checked perm against the page (fits).
func decodeOrdered[I uint8 | uint16](page []byte, dst *NodeSoA, perm []I) {
	for i, src := range perm {
		off := nodeHeaderSize + int(src)*entrySize
		dst.MinX[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[off:]))
		dst.MinY[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[off+8:]))
		dst.MaxX[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[off+16:]))
		dst.MaxY[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[off+24:]))
		dst.Refs[i] = binary.LittleEndian.Uint64(page[off+32:])
	}
}

// PublishSweepOrder memoizes perm as node id's sweep order for slot:
// perm[i] is the page-order index of the entry that sorts to position
// i. perm is copied, so the caller may reuse it. Concurrent queries may
// publish the same slot at once; a packed tree is immutable and the
// sort is deterministic, so they carry the same permutation and either
// store may win. A perm that is not a list of indices below its own
// length is dropped.
func (t *Tree) PublishSweepOrder(id storage.PageID, slot int, perm []uint16) {
	cell := t.orderSlot(id, slot)
	if cell == nil {
		return
	}
	for _, p := range perm {
		if int(p) >= len(perm) {
			return
		}
	}
	o := &sweepOrder{}
	if len(perm) <= 256 {
		o.narrow = make([]uint8, len(perm))
		for i, p := range perm {
			o.narrow[i] = uint8(p)
		}
	} else {
		o.wide = append([]uint16(nil), perm...)
	}
	cell.Store(o)
}
