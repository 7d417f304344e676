package rtree

import (
	"math"
	"sort"
)

// bulkFillRatio is the target node utilization for bulk loading.
// Packing nodes completely full makes every subsequent insert split, so
// STR loaders conventionally leave some slack.
const bulkFillRatio = 0.85

// BulkLoad replaces the builder's contents with a Sort-Tile-Recursive
// (STR) packing of items. STR produces near-optimal square-ish tiles
// for the large experiment datasets where one-at-a-time insertion would
// dominate setup time. The builder remains fully mutable afterwards.
func (b *Builder) BulkLoad(items []Item) {
	b.root = &node{level: 0}
	b.height = 1
	b.size = len(items)
	if len(items) == 0 {
		return
	}

	perNode := int(float64(b.maxEntries) * bulkFillRatio)
	if perNode < b.minEntries {
		perNode = b.minEntries
	}
	if perNode > b.maxEntries {
		perNode = b.maxEntries
	}

	// Level 0: tile the objects into leaves.
	leafEntries := make([]entry, len(items))
	for i, it := range items {
		leafEntries[i] = entry{rect: it.Rect, obj: it.Obj}
	}
	nodes := tile(leafEntries, perNode, 0)

	// Upper levels: tile the node MBRs until one node remains.
	level := 1
	for len(nodes) > 1 {
		parentEntries := make([]entry, len(nodes))
		for i, n := range nodes {
			parentEntries[i] = entry{rect: n.mbr(), child: n}
		}
		nodes = tile(parentEntries, perNode, level)
		level++
	}
	b.root = nodes[0]
	b.height = b.root.level + 1
}

// tile groups entries into nodes of the given level using the STR
// sweep: sort by center-x, cut into vertical slices of sqrt(n/perNode)
// runs, sort each slice by center-y, and chop into nodes.
func tile(entries []entry, perNode, level int) []*node {
	n := len(entries)
	numNodes := (n + perNode - 1) / perNode
	if numNodes == 1 {
		return []*node{{level: level, entries: entries}}
	}
	numSlices := int(math.Ceil(math.Sqrt(float64(numNodes))))
	sliceSize := numSlices * perNode

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].rect.Center().X < entries[j].rect.Center().X
	})

	var out []*node
	for start := 0; start < n; start += sliceSize {
		end := start + sliceSize
		if end > n {
			end = n
		}
		slice := entries[start:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].rect.Center().Y < slice[j].rect.Center().Y
		})
		for s := 0; s < len(slice); s += perNode {
			e := s + perNode
			if e > len(slice) {
				e = len(slice)
			}
			chunk := make([]entry, e-s)
			copy(chunk, slice[s:e])
			out = append(out, &node{level: level, entries: chunk})
		}
	}
	// Guard against a trailing undersized node: merge it into its
	// predecessor when possible, or rebalance the last two nodes.
	if len(out) >= 2 {
		last := out[len(out)-1]
		min := minEntriesFor(perNode)
		if len(last.entries) < min {
			prev := out[len(out)-2]
			combined := append(prev.entries, last.entries...)
			half := len(combined) / 2
			prev.entries = combined[:half]
			last.entries = append([]entry(nil), combined[half:]...)
		}
	}
	return out
}

// minEntriesFor mirrors the builder's minimum fill for a given target
// node size.
func minEntriesFor(perNode int) int {
	m := int(float64(perNode) * defaultMinFillRatio)
	if m < 2 {
		m = 2
	}
	return m
}
