package rtree

// EncodeTestNode serializes entries as a node page, for the external
// tests that need pages no Builder would produce (NaN and infinite
// keys, empty nodes).
func EncodeTestNode(page []byte, level int, entries []NodeEntry) error {
	encs := make([]encEntry, len(entries))
	for i, e := range entries {
		encs[i] = encEntry{rect: e.Rect, ref: e.Ref}
	}
	return encodeNode(page, level, encs)
}
