package rtree

import "distjoin/internal/geom"

// TestEntry is one entry of a node page in row-major form.
type TestEntry struct {
	Rect geom.Rect
	Ref  uint64
}

// EncodeTestNode serializes entries as a node page, for the external
// tests that need pages no Builder would produce (NaN and infinite
// keys, empty nodes).
func EncodeTestNode(page []byte, level int, entries []TestEntry) error {
	encs := make([]encEntry, len(entries))
	for i, e := range entries {
		encs[i] = encEntry{rect: e.Rect, ref: e.Ref}
	}
	return encodeNode(page, level, encs)
}

// DecodedBytes is what a finished node of n entries is charged against
// a tree's room.
func DecodedBytes(n int) int64 { return decodedBytes(n) }

// DecodedNodes counts the finished nodes the sweep-order memo holds and
// reports the bytes charged for them and the room they are charged to.
func (t *Tree) DecodedNodes() (nodes int, used, room int64) {
	for i := range t.orders {
		if c := t.orders[i].Load(); c != nil && c.node != nil {
			nodes++
		}
	}
	return nodes, t.nodeBytes.Load(), t.nodeRoom
}

// CheckInvariants exposes the builder's structural check to the
// external tests.
func (b *Builder) CheckInvariants() error { return b.checkInvariants() }
