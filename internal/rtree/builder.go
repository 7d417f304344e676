package rtree

import (
	"fmt"
	"math"
	"sort"

	"distjoin/internal/geom"
)

// Default fanout parameters. With the paper's 4 KB pages each node
// holds up to 102 entries; the R*-tree paper recommends a minimum fill
// of 40% and a forced-reinsert fraction of 30%.
const (
	defaultMinFillRatio  = 0.40
	reinsertFraction     = 0.30
	minAllowedMaxEntries = 4
)

// Builder is a mutable in-memory R*-tree. Build one with NewBuilder,
// populate it with Insert or BulkLoad, then Pack it onto a page store
// for querying, or query it directly with Search for small workloads.
type Builder struct {
	maxEntries  int
	minEntries  int
	splitPolicy SplitPolicy
	root        *node
	height      int // number of levels; 1 = root is leaf
	size        int // number of objects
}

// NewBuilder returns an empty R*-tree with the given maximum node
// fanout. maxEntries must be at least 4; the minimum fill is 40% of
// the maximum (at least 2), per the R*-tree defaults.
func NewBuilder(maxEntries int) (*Builder, error) {
	if maxEntries < minAllowedMaxEntries {
		return nil, fmt.Errorf("rtree: maxEntries %d < minimum %d", maxEntries, minAllowedMaxEntries)
	}
	minEntries := int(float64(maxEntries) * defaultMinFillRatio)
	if minEntries < 2 {
		minEntries = 2
	}
	return &Builder{
		maxEntries: maxEntries,
		minEntries: minEntries,
		root:       &node{level: 0},
		height:     1,
	}, nil
}

// NewBuilderForPageSize returns a builder whose fanout matches the
// node capacity of the given page size, so the built tree packs
// one-node-per-page without overflow.
func NewBuilderForPageSize(pageSize int) (*Builder, error) {
	return NewBuilder(PageCapacity(pageSize))
}

// Size returns the number of stored objects.
func (b *Builder) Size() int { return b.size }

// Height returns the number of tree levels (1 when the root is a leaf).
func (b *Builder) Height() int { return b.height }

// MaxEntries returns the node fanout limit.
func (b *Builder) MaxEntries() int { return b.maxEntries }

// MinEntries returns the minimum node fill.
func (b *Builder) MinEntries() int { return b.minEntries }

// Bounds returns the MBR of all stored objects (zero Rect when empty).
func (b *Builder) Bounds() geom.Rect { return b.root.mbr() }

// Insert adds one object using the R*-tree insertion algorithm
// (choose-subtree, forced reinsertion, R*-split).
func (b *Builder) Insert(r geom.Rect, obj int64) {
	if !r.Valid() {
		panic(fmt.Sprintf("rtree: invalid rect %v", r))
	}
	b.insertEntry(entry{rect: r, obj: obj}, 0)
	b.size++
}

// pendingEntry is an entry detached during forced reinsertion or tree
// condensation, remembered with its target level.
type pendingEntry struct {
	e     entry
	level int
}

// insertEntry inserts e at the given level, running forced
// reinsertion at most once per level per top-level insertion.
func (b *Builder) insertEntry(e entry, level int) {
	reinserted := make([]bool, b.height)
	pending := []pendingEntry{{e: e, level: level}}
	for len(pending) > 0 {
		p := pending[0]
		pending = pending[1:]
		var newPending []pendingEntry
		split := b.insertInto(b.root, p.e, p.level, reinserted, &newPending)
		if split != nil {
			b.growRoot(split)
			// A new root level exists; extend the reinsertion marker.
			reinserted = append(reinserted, false)
		}
		pending = append(pending, newPending...)
	}
}

// growRoot replaces the root with a new node whose two children are
// the old root and its split sibling.
func (b *Builder) growRoot(split *node) {
	old := b.root
	b.root = &node{
		level: old.level + 1,
		entries: []entry{
			{rect: old.mbr(), child: old},
			{rect: split.mbr(), child: split},
		},
	}
	b.height++
}

// insertInto descends from n to the target level, appends e, and
// handles overflow. It returns a split sibling of n if n was split.
func (b *Builder) insertInto(n *node, e entry, level int, reinserted []bool, pending *[]pendingEntry) *node {
	if n.level == level {
		n.entries = append(n.entries, e)
	} else {
		idx := b.chooseSubtree(n, e.rect)
		child := n.entries[idx].child
		split := b.insertInto(child, e, level, reinserted, pending)
		n.entries[idx].rect = child.mbr()
		if split != nil {
			n.entries = append(n.entries, entry{rect: split.mbr(), child: split})
		}
	}
	if len(n.entries) <= b.maxEntries {
		return nil
	}
	return b.overflowTreatment(n, reinserted, pending)
}

// chooseSubtree picks the child of n to descend into for rect,
// following the R*-tree criteria: minimum overlap enlargement when the
// children are leaves, minimum area enlargement otherwise; ties broken
// by smaller area enlargement then smaller area.
func (b *Builder) chooseSubtree(n *node, r geom.Rect) int {
	if n.level == 1 {
		return b.chooseLeastOverlapEnlargement(n, r)
	}
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.entries {
		enl := e.rect.Enlargement(r)
		area := e.rect.Area()
		//lint:allow floatcmp R*-tree tie-break cascade on bit-equal enlargements; a missed tie only changes tree shape, never correctness
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// chooseLeastOverlapEnlargement implements the leaf-parent criterion:
// the child whose overlap with its siblings grows least when enlarged
// to include r.
//
//lint:allow floatcmp R*-tree tie-break cascade on bit-equal enlargements; a missed tie only changes tree shape, never correctness
func (b *Builder) chooseLeastOverlapEnlargement(n *node, r geom.Rect) int {
	best := 0
	bestOverlap := math.Inf(1)
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.entries {
		enlarged := e.rect.Union(r)
		var before, after float64
		for j, o := range n.entries {
			if i == j {
				continue
			}
			before += e.rect.OverlapArea(o.rect)
			after += enlarged.OverlapArea(o.rect)
		}
		overlapEnl := after - before
		enl := e.rect.Enlargement(r)
		area := e.rect.Area()
		if overlapEnl < bestOverlap ||
			(overlapEnl == bestOverlap && enl < bestEnl) ||
			(overlapEnl == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, overlapEnl, enl, area
		}
	}
	return best
}

// overflowTreatment handles a node with maxEntries+1 entries: forced
// reinsertion the first time a level overflows during one insertion
// (unless n is the root), otherwise an R*-split.
func (b *Builder) overflowTreatment(n *node, reinserted []bool, pending *[]pendingEntry) *node {
	if b.splitPolicy == SplitRStar && n != b.root &&
		n.level < len(reinserted) && !reinserted[n.level] {
		reinserted[n.level] = true
		b.forcedReinsert(n, pending)
		return nil
	}
	switch b.splitPolicy {
	case SplitQuadratic:
		return b.splitNodeQuadratic(n)
	case SplitLinear:
		return b.splitNodeLinear(n)
	default:
		return b.splitNode(n)
	}
}

// forcedReinsert detaches the reinsertFraction of n's entries whose
// centers lie farthest from n's MBR center and queues them for
// reinsertion (closest-first, the R*-tree's "close reinsert").
func (b *Builder) forcedReinsert(n *node, pending *[]pendingEntry) {
	p := int(float64(b.maxEntries) * reinsertFraction)
	if p < 1 {
		p = 1
	}
	center := n.mbr().Center()
	type distEntry struct {
		e entry
		d float64
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		c := e.rect.Center()
		dx, dy := c.X-center.X, c.Y-center.Y
		des[i] = distEntry{e: e, d: dx*dx + dy*dy}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d < des[j].d })
	keep := len(des) - p
	n.entries = n.entries[:0]
	for _, de := range des[:keep] {
		n.entries = append(n.entries, de.e)
	}
	// Close reinsert: nearest detached entries first.
	for _, de := range des[keep:] {
		*pending = append(*pending, pendingEntry{e: de.e, level: n.level})
	}
}

// splitNode performs the R*-tree topological split: choose the split
// axis by minimum margin sum, then the distribution by minimum overlap
// (ties by minimum combined area). n keeps the first group; the
// returned sibling holds the second.
func (b *Builder) splitNode(n *node) *node {
	axis := b.chooseSplitAxis(n.entries)
	first, second := b.chooseSplitDistribution(n.entries, axis)
	n.entries = first
	return &node{level: n.level, entries: second}
}

// sortByAxis sorts entries by (lower, upper) along axis when byLower,
// else by (upper, lower).
//
//lint:allow floatcmp coordinate tie-break on bit-equal MBR bounds keeps the R* distribution sort deterministic
func sortByAxis(entries []entry, axis int, byLower bool) {
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i].rect, entries[j].rect
		if byLower {
			if a.Min(axis) != b.Min(axis) {
				return a.Min(axis) < b.Min(axis)
			}
			return a.Max(axis) < b.Max(axis)
		}
		if a.Max(axis) != b.Max(axis) {
			return a.Max(axis) < b.Max(axis)
		}
		return a.Min(axis) < b.Min(axis)
	})
}

// distributions enumerates the R*-split candidate distributions for a
// sorted entry list: for each k in [m, M+1-m], the first k entries vs
// the rest.
func (b *Builder) distributionRange(total int) (lo, hi int) {
	return b.minEntries, total - b.minEntries
}

// chooseSplitAxis returns the axis (0 or 1) with the minimum sum of
// group margins across all candidate distributions and both sort
// orders.
func (b *Builder) chooseSplitAxis(entries []entry) int {
	bestAxis := 0
	bestMargin := math.Inf(1)
	scratch := make([]entry, len(entries))
	for axis := 0; axis < geom.Dims; axis++ {
		var marginSum float64
		for _, byLower := range []bool{true, false} {
			copy(scratch, entries)
			sortByAxis(scratch, axis, byLower)
			lo, hi := b.distributionRange(len(scratch))
			for k := lo; k <= hi; k++ {
				g1 := mbrOf(scratch[:k])
				g2 := mbrOf(scratch[k:])
				marginSum += g1.Margin() + g2.Margin()
			}
		}
		if marginSum < bestMargin {
			bestMargin = marginSum
			bestAxis = axis
		}
	}
	return bestAxis
}

// chooseSplitDistribution returns the two entry groups of the best
// distribution along axis: minimum overlap area, ties broken by
// minimum combined area. Both sort orders are considered.
func (b *Builder) chooseSplitDistribution(entries []entry, axis int) (first, second []entry) {
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	var bestSorted []entry
	bestK := -1
	for _, byLower := range []bool{true, false} {
		sorted := make([]entry, len(entries))
		copy(sorted, entries)
		sortByAxis(sorted, axis, byLower)
		lo, hi := b.distributionRange(len(sorted))
		for k := lo; k <= hi; k++ {
			g1 := mbrOf(sorted[:k])
			g2 := mbrOf(sorted[k:])
			overlap := g1.OverlapArea(g2)
			area := g1.Area() + g2.Area()
			// The first candidate stands until one compares better: with
			// infinite coordinates every overlap and area may be +Inf or
			// NaN (+Inf times zero), and none compares below +Inf.
			//lint:allow floatcmp R*-tree tie-break on bit-equal overlap areas; a missed tie only changes tree shape, never correctness
			if bestK < 0 || overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestSorted, bestK = sorted, k
			}
		}
	}
	first = append([]entry(nil), bestSorted[:bestK]...)
	second = append([]entry(nil), bestSorted[bestK:]...)
	return first, second
}

func mbrOf(entries []entry) geom.Rect {
	r := entries[0].rect
	for _, e := range entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// Delete removes one object with the given rect and id, returning
// whether it was found. Underfull nodes along the path are dissolved
// and their entries reinserted (the classic condense-tree step).
func (b *Builder) Delete(r geom.Rect, obj int64) bool {
	leaf, path := b.findLeaf(b.root, r, obj, nil)
	if leaf == nil {
		return false
	}
	for i, e := range leaf.entries {
		if e.obj == obj && e.rect == r {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	b.size--
	b.condenseTree(leaf, path)
	return true
}

// findLeaf locates the leaf containing (r, obj) and the root-to-parent
// path to it.
func (b *Builder) findLeaf(n *node, r geom.Rect, obj int64, path []*node) (*node, []*node) {
	if n.level == 0 {
		for _, e := range n.entries {
			if e.obj == obj && e.rect == r {
				return n, path
			}
		}
		return nil, nil
	}
	for _, e := range n.entries {
		if !e.rect.Contains(r) {
			continue
		}
		if leaf, p := b.findLeaf(e.child, r, obj, append(path, n)); leaf != nil {
			return leaf, p
		}
	}
	return nil, nil
}

// condenseTree walks from a modified leaf to the root, dissolving
// underfull nodes and reinserting their orphaned entries, then shrinks
// a single-child internal root.
func (b *Builder) condenseTree(n *node, path []*node) {
	var orphans []pendingEntry
	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		idx := -1
		for j, e := range parent.entries {
			if e.child == n {
				idx = j
				break
			}
		}
		if idx < 0 {
			// n was already detached (can't happen with a correct path).
			break
		}
		if len(n.entries) < b.minEntries {
			parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
			for _, e := range n.entries {
				orphans = append(orphans, pendingEntry{e: e, level: n.level})
			}
		} else {
			parent.entries[idx].rect = n.mbr()
		}
		n = parent
	}
	// Shrink the root while it is an internal node with one child.
	for b.root.level > 0 && len(b.root.entries) == 1 {
		b.root = b.root.entries[0].child
		b.height--
	}
	if b.root.level > 0 && len(b.root.entries) == 0 {
		// All children dissolved: reset to an empty leaf.
		b.root = &node{level: 0}
		b.height = 1
	}
	for _, o := range orphans {
		if o.level <= b.height-1 {
			b.insertEntry(o.e, o.level)
			continue
		}
		// The tree shrank below the orphan's level: a subtree entry can
		// no longer be reattached wholesale, so reinsert its objects.
		if o.e.child == nil {
			b.insertEntry(o.e, 0)
			continue
		}
		b.walk(o.e.child, func(it Item) {
			b.insertEntry(entry{rect: it.Rect, obj: it.Obj}, 0)
		})
	}
}

// Search invokes fn for every stored object whose rect intersects q.
// Returning false from fn stops the search early.
func (b *Builder) Search(q geom.Rect, fn func(Item) bool) {
	b.search(b.root, q, fn)
}

func (b *Builder) search(n *node, q geom.Rect, fn func(Item) bool) bool {
	for _, e := range n.entries {
		if !e.rect.Intersects(q) {
			continue
		}
		if n.level == 0 {
			if !fn(Item{Rect: e.rect, Obj: e.obj}) {
				return false
			}
		} else if !b.search(e.child, q, fn) {
			return false
		}
	}
	return true
}

// Items returns all stored objects in unspecified order.
func (b *Builder) Items() []Item {
	out := make([]Item, 0, b.size)
	b.walk(b.root, func(it Item) { out = append(out, it) })
	return out
}

func (b *Builder) walk(n *node, fn func(Item)) {
	for _, e := range n.entries {
		if n.level == 0 {
			fn(Item{Rect: e.rect, Obj: e.obj})
		} else {
			b.walk(e.child, fn)
		}
	}
}

// checkInvariants validates structural invariants, returning the first
// violation found. Used by tests.
func (b *Builder) checkInvariants() error {
	if b.root.level != b.height-1 {
		return fmt.Errorf("root level %d != height-1 %d", b.root.level, b.height-1)
	}
	count, err := b.check(b.root, true)
	if err != nil {
		return err
	}
	if count != b.size {
		return fmt.Errorf("leaf count %d != size %d", count, b.size)
	}
	return nil
}

func (b *Builder) check(n *node, isRoot bool) (int, error) {
	if len(n.entries) > b.maxEntries {
		return 0, fmt.Errorf("node at level %d has %d entries > max %d", n.level, len(n.entries), b.maxEntries)
	}
	if !isRoot && len(n.entries) < b.minEntries {
		return 0, fmt.Errorf("non-root node at level %d has %d entries < min %d", n.level, len(n.entries), b.minEntries)
	}
	if isRoot && n.level > 0 && len(n.entries) < 2 {
		return 0, fmt.Errorf("internal root has %d entries", len(n.entries))
	}
	if n.level == 0 {
		return len(n.entries), nil
	}
	total := 0
	for _, e := range n.entries {
		if e.child == nil {
			return 0, fmt.Errorf("internal entry with nil child at level %d", n.level)
		}
		if e.child.level != n.level-1 {
			return 0, fmt.Errorf("child level %d under node level %d", e.child.level, n.level)
		}
		if e.rect != e.child.mbr() {
			return 0, fmt.Errorf("entry rect %v != child mbr %v", e.rect, e.child.mbr())
		}
		c, err := b.check(e.child, false)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// totalLeafOverlap sums pairwise overlap areas between sibling leaf
// MBRs — a standard index-quality measure (smaller is better). Used by
// tests and the split-policy ablation.
func (b *Builder) totalLeafOverlap() float64 {
	var total float64
	var walk func(n *node)
	walk = func(n *node) {
		if n.level == 1 {
			for i := 0; i < len(n.entries); i++ {
				for j := i + 1; j < len(n.entries); j++ {
					total += n.entries[i].rect.OverlapArea(n.entries[j].rect)
				}
			}
			return
		}
		if n.level > 1 {
			for _, e := range n.entries {
				walk(e.child)
			}
		}
	}
	walk(b.root)
	return total
}

// TotalLeafOverlap exposes the index-quality measure for tooling.
func (b *Builder) TotalLeafOverlap() float64 { return b.totalLeafOverlap() }
