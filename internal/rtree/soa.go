package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"distjoin/internal/geom"
)

// NodeSoA is the decoded form of one paged node, struct-of-arrays: the
// entry MBRs as four parallel coordinate slices plus the refs. The
// plane sweep and the geom batch distance kernels scan these slices as
// contiguous float64 memory instead of striding over the page's
// 40-byte entry records.
//
// All five slices share one backing allocation (coords for the four
// coordinate columns, refs for the references), sized once and reused
// across decodes, so a warm NodeSoA decodes with zero allocations.
type NodeSoA struct {
	// Level is the node's height above the leaves; 0 means leaf.
	Level int
	// MinX, MinY, MaxX, MaxY are the entry MBR coordinate columns.
	MinX, MinY, MaxX, MaxY []float64
	// Refs holds child page IDs at internal nodes and object IDs at
	// leaves, in entry order.
	Refs []uint64

	coords []float64 // single backing array for the four columns
}

// MaxNodeEntries bounds the entries of any decoded node, whatever the
// page size: the page header stores the entry count as a uint16. Code
// that indexes a node's entries (the join's per-anchor ranges) may
// therefore hold an index in sixteen bits.
const MaxNodeEntries = math.MaxUint16

// Len returns the number of entries.
func (s *NodeSoA) Len() int { return len(s.Refs) }

// IsLeaf reports whether the node is a leaf.
func (s *NodeSoA) IsLeaf() bool { return s.Level == 0 }

// Reset resizes the node to n entries with undefined contents, reusing
// the backing arrays when they are large enough (one allocation of the
// coordinate block and one of the ref block otherwise).
func (s *NodeSoA) Reset(n int) {
	if cap(s.coords) < 4*n {
		s.coords = make([]float64, 4*n)
	}
	c := s.coords[:4*n]
	s.MinX = c[0*n : 1*n : 1*n]
	s.MinY = c[1*n : 2*n : 2*n]
	s.MaxX = c[2*n : 3*n : 3*n]
	s.MaxY = c[3*n : 4*n : 4*n]
	if cap(s.Refs) < n {
		s.Refs = make([]uint64, n)
	}
	s.Refs = s.Refs[:n]
}

// clone returns a copy of s that shares no memory with it.
func (s *NodeSoA) clone() *NodeSoA {
	c := &NodeSoA{Level: s.Level}
	c.Reset(s.Len())
	copy(c.MinX, s.MinX)
	copy(c.MinY, s.MinY)
	copy(c.MaxX, s.MaxX)
	copy(c.MaxY, s.MaxY)
	copy(c.Refs, s.Refs)
	return c
}

// SetSingle makes the node a one-entry leaf holding r with the given
// ref — the singleton list a join expansion uses for an object side.
func (s *NodeSoA) SetSingle(r geom.Rect, ref uint64) {
	s.Reset(1)
	s.Level = 0
	s.MinX[0], s.MinY[0], s.MaxX[0], s.MaxY[0] = r.MinX, r.MinY, r.MaxX, r.MaxY
	s.Refs[0] = ref
}

// Rect returns the i-th entry's MBR.
func (s *NodeSoA) Rect(i int) geom.Rect {
	return geom.Rect{MinX: s.MinX[i], MinY: s.MinY[i], MaxX: s.MaxX[i], MaxY: s.MaxY[i]}
}

// Swap exchanges entries i and j across all columns.
func (s *NodeSoA) Swap(i, j int) {
	s.MinX[i], s.MinX[j] = s.MinX[j], s.MinX[i]
	s.MinY[i], s.MinY[j] = s.MinY[j], s.MinY[i]
	s.MaxX[i], s.MaxX[j] = s.MaxX[j], s.MaxX[i]
	s.MaxY[i], s.MaxY[j] = s.MaxY[j], s.MaxY[i]
	s.Refs[i], s.Refs[j] = s.Refs[j], s.Refs[i]
}

// Lo returns the lower-bound column for axis (0 = MinX, 1 = MinY).
func (s *NodeSoA) Lo(axis int) []float64 {
	if axis == 0 {
		return s.MinX
	}
	return s.MinY
}

// Hi returns the upper-bound column for axis (0 = MaxX, 1 = MaxY).
func (s *NodeSoA) Hi(axis int) []float64 {
	if axis == 0 {
		return s.MaxX
	}
	return s.MaxY
}

// decodeNodeSoA parses a page into dst column-wise, reusing dst's
// backing arrays. The page layout (node.go) is row-major. A page too
// short for a header, or whose header counts more entries than the page
// holds, is ErrCorruptNode.
func decodeNodeSoA(page []byte, dst *NodeSoA) error {
	if len(page) < nodeHeaderSize {
		return fmt.Errorf("%w: page of %d bytes is shorter than a node header", ErrCorruptNode, len(page))
	}
	level := int(binary.LittleEndian.Uint16(page[0:]))
	count := int(binary.LittleEndian.Uint16(page[2:]))
	if count > PageCapacity(len(page)) {
		return fmt.Errorf("%w: count %d exceeds capacity %d",
			ErrCorruptNode, count, PageCapacity(len(page)))
	}
	dst.Level = level
	dst.Reset(count)
	minX, minY, maxX, maxY, refs := dst.MinX[:count], dst.MinY[:count], dst.MaxX[:count], dst.MaxY[:count], dst.Refs[:count]
	for i := range refs {
		e := entryAt(page, i)
		minX[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[0:]))
		minY[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[8:]))
		maxX[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[16:]))
		maxY[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[24:]))
		refs[i] = binary.LittleEndian.Uint64(e[32:])
	}
	return nil
}

// entryAt returns page entry i's record as one subslice of fixed length
// and capacity: the one bounds check of the entry, after which every
// field load has a constant offset and none.
func entryAt(page []byte, i int) []byte {
	off := nodeHeaderSize + i*entrySize
	return page[off : off+entrySize : off+entrySize]
}
