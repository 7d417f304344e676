// Package rtree implements the R*-tree index (Beckmann, Kriegel,
// Schneider, Seeger 1990) used as the access method in the paper's
// experiments (§5.1). It has two layers:
//
//   - Builder: an in-memory R*-tree supporting dynamic insertion with
//     forced reinsertion, R*-splits, deletion with tree condensation,
//     and STR bulk loading.
//   - Tree: a read-only paged image of a built tree, serialized onto
//     fixed-size pages (4 KB by default) and read back through a
//     storage.BufferPool so that every node access — and whether it hit
//     the buffer — is observable by the join algorithms (Table 2).
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"distjoin/internal/geom"
)

// Item is one spatial object: its MBR and an opaque object identifier.
type Item struct {
	Rect geom.Rect
	Obj  int64
}

// entry is an in-memory node slot: either a child pointer (internal
// node) or an object reference (leaf).
type entry struct {
	rect  geom.Rect
	child *node // nil at leaves
	obj   int64 // valid at leaves
}

// node is an in-memory R-tree node. level 0 is a leaf.
type node struct {
	level   int
	entries []entry
}

// mbr returns the union of all entry rectangles.
func (n *node) mbr() geom.Rect {
	if len(n.entries) == 0 {
		return geom.Rect{}
	}
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// Page layout constants. Each node occupies exactly one page:
//
//	offset 0: uint16 level        (0 = leaf)
//	offset 2: uint16 entry count
//	offset 4: uint32 reserved
//	offset 8: count * entrySize entry records:
//	          4 x float64 MBR, then uint64 ref (child page id at
//	          internal nodes, object id at leaves)
const (
	nodeHeaderSize = 8
	entrySize      = 4*8 + 8
)

// PageCapacity returns the maximum number of entries a node page of
// the given size can hold.
func PageCapacity(pageSize int) int {
	return (pageSize - nodeHeaderSize) / entrySize
}

// Node is the old name of the decoded node, kept only because
// benchmark/probes.go spells Walk's callback with it; the next
// [benchmark] PR drops it.
type Node = NodeSoA

// encodeNode serializes n into page, which must be large enough.
func encodeNode(page []byte, level int, entries []encEntry) error {
	if cap := PageCapacity(len(page)); len(entries) > cap {
		return fmt.Errorf("rtree: %d entries exceed page capacity %d", len(entries), cap)
	}
	if level < 0 || level > math.MaxUint16 {
		return fmt.Errorf("rtree: level %d out of range", level)
	}
	for i := range page {
		page[i] = 0
	}
	binary.LittleEndian.PutUint16(page[0:], uint16(level))
	binary.LittleEndian.PutUint16(page[2:], uint16(len(entries)))
	off := nodeHeaderSize
	for _, e := range entries {
		binary.LittleEndian.PutUint64(page[off:], math.Float64bits(e.rect.MinX))
		binary.LittleEndian.PutUint64(page[off+8:], math.Float64bits(e.rect.MinY))
		binary.LittleEndian.PutUint64(page[off+16:], math.Float64bits(e.rect.MaxX))
		binary.LittleEndian.PutUint64(page[off+24:], math.Float64bits(e.rect.MaxY))
		binary.LittleEndian.PutUint64(page[off+32:], e.ref)
		off += entrySize
	}
	return nil
}

// encEntry is the serialization form of an entry.
type encEntry struct {
	rect geom.Rect
	ref  uint64
}
