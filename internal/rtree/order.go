package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"distjoin/internal/metrics"
	"distjoin/internal/storage"
)

// SweepSlots is the number of sweep orders memoized per node: two axes
// times two directions. The mapping from a sweep plan to a slot belongs
// to the caller (sweep.Plan.Slot); this package stores what the caller
// publishes, keyed by slot.
const SweepSlots = 4

// sweepCell is what the memo holds for one (node, slot), in one of two
// forms. Exactly one field is set and a cell is immutable once
// published.
//
//   - node: the finished node — decoded, in the slot's sweep order, refs
//     as the publisher left them (the join stamps child levels into
//     them). A reader sweeps it in place. Held only while the tree has
//     room for decoded nodes (Tree.nodeRoom).
//   - narrow or wide: the node's entry permutation, position i of the
//     ordered node being page entry perm[i]. Byte indices when the node
//     has at most 256 entries, which covers every page size up to 10 KB.
//     A reader decodes the page through it into its own scratch.
type sweepCell struct {
	node   *NodeSoA
	narrow []uint8
	wide   []uint16
}

func (c *sweepCell) len() int {
	if c.node != nil {
		return c.node.Len()
	}
	return len(c.narrow) + len(c.wide)
}

// fits reports whether c describes exactly the entries page holds. A
// cell that does not is ignored, never trusted. Every index of a
// permutation is below its length (PublishSweepOrder checks), so a
// fitting one never reads past the page's entries.
func (c *sweepCell) fits(page []byte) bool {
	return len(page) >= nodeHeaderSize &&
		c.len() == int(binary.LittleEndian.Uint16(page[2:])) &&
		c.len() <= PageCapacity(len(page))
}

// decodedBytes is what a published node of n entries is charged against
// the tree's room: the five columns plus the node and cell headers.
func decodedBytes(n int) int64 {
	return int64(n)*entrySize + int64(unsafe.Sizeof(NodeSoA{})+unsafe.Sizeof(sweepCell{}))
}

// newOrderMemo sizes the memo table for a store: one pointer per
// (page, slot), all nil until a query first orders that node.
func newOrderMemo(store storage.Store) []atomic.Pointer[sweepCell] {
	return make([]atomic.Pointer[sweepCell], SweepSlots*store.NumPages())
}

// decodedRoom is the memory rule for finished nodes: they may occupy
// the pool capacity the tree's pages can never use. A pool that does
// not hold the whole tree has no such room, and a tree read through it
// memoizes permutations only.
func decodedRoom(pool *storage.BufferPool) int64 {
	spare := pool.Frames() - pool.Store().NumPages()
	if spare <= 0 {
		return 0
	}
	return int64(spare) * int64(pool.PageSize())
}

// orderSlot returns the memo cell for (id, slot), or nil when either is
// out of the table's range (a ref decoded from a damaged page).
func (t *Tree) orderSlot(id storage.PageID, slot int) *atomic.Pointer[sweepCell] {
	i := int(id)*SweepSlots + slot
	if slot < 0 || slot >= SweepSlots || i >= len(t.orders) {
		return nil
	}
	return &t.orders[i]
}

// PinnedNode is a node's page held in the tree's buffer pool for one
// read: PinNode fetches, accounts and checks it once, the caller reads
// from it what it needs — the header, the occupancy grid, the node in
// page order or in a sweep slot's order — and releases it once. The
// zero value pins nothing, and its Release does nothing.
type PinnedNode struct {
	t  *Tree
	id storage.PageID
	f  *storage.Frame
}

// PinNode pins node id's page, counting the access against mc (which
// may be nil), and checks that the page's header claims level, the level
// the reader expects of the node its ref leads to: the parent's minus
// one, or Height()-1 for the root. A page that claims another is
// ErrCorruptNode and is not left pinned. The caller must Release a
// PinnedNode it gets. Every checked node read starts here, and takes the
// node from Decode or Ordered.
func (t *Tree) PinNode(id storage.PageID, level int, mc *metrics.Collector) (PinnedNode, error) {
	f, err := t.fetchNode(id, mc)
	if err != nil {
		return PinnedNode{}, err
	}
	p := PinnedNode{t: t, id: id, f: f}
	if claimed, _ := p.Header(); claimed != level {
		f.Release()
		return PinnedNode{}, fmt.Errorf("%w: page %d claims level %d, its reader expects level %d",
			ErrCorruptNode, id, claimed, level)
	}
	return p, nil
}

// Decode decodes the pinned page into scratch in page order, reusing
// its backing arrays, and holds the node to the rules every reader
// relies on: no entry a Builder would not write (keyError), no node
// without entries in a tree that holds objects (only an empty tree's
// root is empty), and at an internal node no child ref wider than a
// page ID, which truncated would lead to some other page. A node that
// breaks any of them is ErrCorruptNode. It is the one page-order
// decode of a checked read: the descents and the HS joins call it, and
// so does Ordered when the memo holds nothing for the slot, so a node
// is checked before it can be sorted and published.
func (p PinnedNode) Decode(scratch *NodeSoA) error {
	if err := decodeNodeSoA(p.f.Bytes(), scratch); err != nil {
		return fmt.Errorf("page %d: %w", p.id, err)
	}
	if err := keyError(p.id, scratch); err != nil {
		return err
	}
	if scratch.Len() == 0 && p.t.size > 0 {
		return fmt.Errorf("%w: page %d has no entries in a tree of %d objects", ErrCorruptNode, p.id, p.t.size)
	}
	if scratch.IsLeaf() {
		return nil
	}
	for _, r := range scratch.Refs {
		if r > math.MaxUint32 {
			return fmt.Errorf("%w: page %d has child ref %#x, which is not a page id", ErrCorruptNode, p.id, r)
		}
	}
	return nil
}

// Release unpins the page. Nodes Decode and Ordered returned stay
// valid: none of them refers to the page.
func (p PinnedNode) Release() {
	if p.f != nil {
		p.f.Release()
	}
}

// Ordered returns the node to sweep in slot's order, by the cheapest
// route the memo offers:
//
//   - the finished node was published: it is returned as n (n !=
//     scratch, ordered). It is shared with every other query on the
//     tree and must not be written; the caller may read it until its
//     expansion ends.
//   - the permutation was published: the page is decoded through it
//     into scratch (n == scratch, ordered).
//   - neither: scratch holds the node in page order, decoded and
//     checked by Decode (n == scratch; ordered only when it has fewer
//     than two entries).
//
// Whenever n == scratch the caller finishes the node — sorts it if it
// is not ordered — and offers it to Publish. A memo cell whose length
// disagrees with the page's entry count is ignored. A node that comes
// through the memo is not checked again: a query publishes only what it
// took from a node Decode passed.
func (p PinnedNode) Ordered(slot int, scratch *NodeSoA) (n *NodeSoA, ordered bool, err error) {
	page := p.f.Bytes()
	if cell := p.t.orderSlot(p.id, slot); cell != nil {
		if c := cell.Load(); c != nil && c.fits(page) {
			if c.node != nil {
				return c.node, true, nil
			}
			scratch.Level = int(binary.LittleEndian.Uint16(page[0:]))
			scratch.Reset(c.len())
			if c.narrow != nil {
				decodeOrdered(page, scratch, c.narrow)
			} else {
				decodeOrdered(page, scratch, c.wide)
			}
			return scratch, true, nil
		}
	}
	if err := p.Decode(scratch); err != nil {
		return nil, false, err
	}
	return scratch, scratch.Len() < 2, nil
}

// Publish is PublishSweepOrder for the pinned node.
func (p PinnedNode) Publish(slot int, perm []uint16, finished *NodeSoA) {
	p.t.PublishSweepOrder(p.id, slot, perm, finished)
}

// Header returns the level and the entry count the page's header claims,
// without decoding it.
func (p PinnedNode) Header() (level, count int) {
	page := p.f.Bytes()
	return int(binary.LittleEndian.Uint16(page[0:])), int(binary.LittleEndian.Uint16(page[2:]))
}

// gridCell is one page's slot of the grid table. state moves from
// gridAbsent to gridBusy (one publisher wins it) to gridReady, and back
// to gridAbsent only on a resize, between queries; the grid and the
// entry count n it was made from are written before gridReady is
// stored, and read only after it is loaded. The table is allocated
// with the tree, so publishing allocates nothing.
type gridCell struct {
	state atomic.Uint32
	n     uint32
	g     Occupancy
}

const (
	gridAbsent = iota
	gridBusy
	gridReady
)

// gridSlot returns the page's grid slot, or nil when the page is past
// the table (a ref decoded from a damaged page).
func (p PinnedNode) gridSlot() *gridCell {
	if int(p.id) >= len(p.t.grids) {
		return nil
	}
	return &p.t.grids[p.id]
}

// Grid returns the occupancy grid published for the page, or nil while
// none is, or when it was made from another entry count than the page's
// header claims: like a memo cell that does not fit, it is then
// ignored. A grid, once returned, is never written again while a query
// runs.
func (p PinnedNode) Grid() *Occupancy {
	if c := p.gridSlot(); c != nil && c.state.Load() == gridReady {
		if _, count := p.Header(); int(c.n) == count {
			return &c.g
		}
	}
	return nil
}

// PublishGrid publishes the occupancy grid of n, the page's node as
// Ordered or Decode returned it, so checked, unless a grid is already
// published or being published. It allocates nothing.
func (p PinnedNode) PublishGrid(n *NodeSoA) {
	// The load keeps the readers of a published grid from taking its
	// cache line exclusively, as a failed compare-and-swap would.
	if c := p.gridSlot(); c != nil && c.state.Load() == gridAbsent && c.state.CompareAndSwap(gridAbsent, gridBusy) {
		c.n, c.g = uint32(n.Len()), OccupancyOf(n)
		c.state.Store(gridReady)
	}
}

// decodeOrdered is decodeNodeSoA's loop reading page entry perm[i] into
// position i. The caller has checked perm against the page (fits) and
// sized dst to it.
func decodeOrdered[I uint8 | uint16](page []byte, dst *NodeSoA, perm []I) {
	n := len(perm)
	minX, minY, maxX, maxY, refs := dst.MinX[:n], dst.MinY[:n], dst.MaxX[:n], dst.MaxY[:n], dst.Refs[:n]
	for i, src := range perm {
		e := entryAt(page, int(src))
		minX[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[0:]))
		minY[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[8:]))
		maxX[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[16:]))
		maxY[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[24:]))
		refs[i] = binary.LittleEndian.Uint64(e[32:])
	}
}

// PublishSweepOrder memoizes node id's sweep order for slot. finished
// is the node as the caller will sweep it, in slot's order; perm, when
// the caller had to sort, is the permutation that sort applied (perm[i]
// is the page-order index of the entry now at position i) and nil when
// the node came ordered. Both are copied, so the caller may reuse them.
//
// While the tree has room, a copy of finished becomes the cell and
// later reads return it in place. Otherwise perm, if any, is stored in
// compact form; a perm that is not a list of indices below its own
// length is dropped. Room is only ever charged, never reclaimed by
// evicting: what a cell holds changes at most from permutation to node.
//
// Concurrent queries may publish the same cell at once. A packed tree
// is immutable and the sort is deterministic, so they carry the same
// node and whichever store wins is right; the losers' charge is
// returned.
func (t *Tree) PublishSweepOrder(id storage.PageID, slot int, perm []uint16, finished *NodeSoA) {
	cell := t.orderSlot(id, slot)
	if cell == nil {
		return
	}
	old := cell.Load()
	if old != nil && old.node != nil && old.node.Len() == finished.Len() {
		return // another query published this node since the caller read the cell
	}
	if size := decodedBytes(finished.Len()); t.reserve(size) {
		if !t.replaceCell(cell, old, &sweepCell{node: finished.clone()}) {
			t.nodeBytes.Add(-size)
		}
		return
	}
	if perm == nil {
		return
	}
	for _, p := range perm {
		if int(p) >= len(perm) {
			return
		}
	}
	c := &sweepCell{}
	if len(perm) <= 256 {
		c.narrow = make([]uint8, len(perm))
		for i, p := range perm {
			c.narrow[i] = uint8(p)
		}
	} else {
		c.wide = append([]uint16(nil), perm...)
	}
	t.replaceCell(cell, old, c)
}

// reserve charges size bytes against the room for finished nodes and
// reports whether they fit. The load in front keeps a tree without room
// — every query of a server whose pool is smaller than its index — from
// writing to a cache line all its queries share.
func (t *Tree) reserve(size int64) bool {
	if t.nodeBytes.Load()+size > t.nodeRoom {
		return false
	}
	if t.nodeBytes.Add(size) > t.nodeRoom {
		t.nodeBytes.Add(-size)
		return false
	}
	return true
}

// replaceCell installs c where old was read, returning the charge of a
// node it displaces (only a distrusted one can be displaced). It
// reports false when another publisher got there first.
func (t *Tree) replaceCell(cell *atomic.Pointer[sweepCell], old, c *sweepCell) bool {
	if !cell.CompareAndSwap(old, c) {
		return false
	}
	if old != nil && old.node != nil {
		t.nodeBytes.Add(-decodedBytes(old.node.Len()))
	}
	return true
}

// rederiveRoom recomputes the room for finished nodes from the current
// pool. If the nodes already published no longer fit it they are all
// dropped — their cells go back to empty and refill, as permutations or
// as nodes, whichever the new room allows. Permutations stay: they are
// charged to no pool.
//
// Every occupancy grid goes, whatever the room: a grid lets an
// expansion that pairs nothing skip the decode that would have
// published a node, so grids kept across a resize would leave the memo
// holding other nodes than a fresh tree's queries publish.
func (t *Tree) rederiveRoom() {
	for i := range t.grids {
		t.grids[i].state.Store(gridAbsent)
	}
	t.nodeRoom = decodedRoom(t.pool)
	if t.nodeBytes.Load() <= t.nodeRoom {
		return
	}
	for i := range t.orders {
		if c := t.orders[i].Load(); c != nil && c.node != nil {
			t.orders[i].Store(nil)
		}
	}
	t.nodeBytes.Store(0)
}
