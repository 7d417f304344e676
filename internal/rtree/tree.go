package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"distjoin/internal/geom"
	"distjoin/internal/metrics"
	"distjoin/internal/pqueue"
	"distjoin/internal/storage"
)

// metaMagic identifies a packed distjoin R-tree store.
const metaMagic = "DJRT0001"

// ErrNotRTree is returned when opening a store that does not contain a
// packed R-tree.
var ErrNotRTree = errors.New("rtree: store does not contain a packed R-tree")

// Tree is a read-only paged R-tree: the query-time image of a Builder,
// read through a buffer pool. All node fetches are counted against the
// supplied metrics collector, distinguishing logical accesses from
// physical (buffer-miss) reads, which is exactly the accounting of the
// paper's Table 2.
type Tree struct {
	pool     *storage.BufferPool
	cost     metrics.IOCostModel
	rootPage storage.PageID
	height   int
	size     int
	numNodes int
	bounds   geom.Rect
	// orders is the sweep-order memo (order.go): SweepSlots cells per
	// page, filled lazily by queries. What a cell describes depends only
	// on the immutable page contents; which form it takes depends on
	// nodeRoom, the bytes finished nodes may occupy (derived from the
	// pool, see decodedRoom), of which nodeBytes are charged.
	orders    []atomic.Pointer[sweepCell]
	nodeRoom  int64
	nodeBytes atomic.Int64
}

// newTree completes t, whose shape fields are set, with a cold buffer
// pool of bufferBytes over store and an empty sweep-order memo.
func newTree(t *Tree, store storage.Store, bufferBytes int) *Tree {
	t.pool = storage.NewBufferPool(store, bufferBytes)
	t.cost = metrics.DefaultIOCostModel()
	t.orders = newOrderMemo(store)
	t.nodeRoom = decodedRoom(t.pool)
	return t
}

// Pack serializes the builder's current contents onto store (page 0
// becomes the metadata page) and returns a Tree reading through a
// buffer pool of bufferBytes capacity. The store must be empty.
func (b *Builder) Pack(store storage.Store, bufferBytes int) (*Tree, error) {
	if store.NumPages() != 0 {
		return nil, fmt.Errorf("rtree: Pack requires an empty store, got %d pages", store.NumPages())
	}
	pageSize := store.PageSize()
	if b.maxEntries > PageCapacity(pageSize) {
		return nil, fmt.Errorf("rtree: builder fanout %d exceeds page capacity %d",
			b.maxEntries, PageCapacity(pageSize))
	}
	metaID, err := store.Alloc()
	if err != nil {
		return nil, err
	}

	// First pass: assign page IDs in level order (root first) so
	// parents can reference children.
	ids := map[*node]storage.PageID{}
	queue := []*node{b.root}
	order := make([]*node, 0)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		id, err := store.Alloc()
		if err != nil {
			return nil, err
		}
		ids[n] = id
		order = append(order, n)
		if n.level > 0 {
			for _, e := range n.entries {
				queue = append(queue, e.child)
			}
		}
	}

	// Second pass: serialize.
	page := make([]byte, pageSize)
	for _, n := range order {
		encs := make([]encEntry, len(n.entries))
		for i, e := range n.entries {
			ref := uint64(e.obj)
			if n.level > 0 {
				ref = uint64(ids[e.child])
			}
			encs[i] = encEntry{rect: e.rect, ref: ref}
		}
		if err := encodeNode(page, n.level, encs); err != nil {
			return nil, err
		}
		if err := store.WritePage(ids[n], page); err != nil {
			return nil, err
		}
	}

	// Metadata page.
	meta := make([]byte, pageSize)
	copy(meta, metaMagic)
	binary.LittleEndian.PutUint32(meta[8:], uint32(ids[b.root]))
	binary.LittleEndian.PutUint32(meta[12:], uint32(b.height))
	binary.LittleEndian.PutUint64(meta[16:], uint64(b.size))
	binary.LittleEndian.PutUint32(meta[24:], uint32(len(order)))
	bounds := b.root.mbr()
	binary.LittleEndian.PutUint64(meta[28:], math.Float64bits(bounds.MinX))
	binary.LittleEndian.PutUint64(meta[36:], math.Float64bits(bounds.MinY))
	binary.LittleEndian.PutUint64(meta[44:], math.Float64bits(bounds.MaxX))
	binary.LittleEndian.PutUint64(meta[52:], math.Float64bits(bounds.MaxY))
	if err := store.WritePage(metaID, meta); err != nil {
		return nil, err
	}

	return newTree(&Tree{
		rootPage: ids[b.root],
		height:   b.height,
		size:     b.size,
		numNodes: len(order),
		bounds:   bounds,
	}, store, bufferBytes), nil
}

// Open reads the metadata page of a previously packed store and
// returns a Tree over it with a buffer pool of bufferBytes capacity.
func Open(store storage.Store, bufferBytes int) (*Tree, error) {
	if store.NumPages() == 0 {
		return nil, ErrNotRTree
	}
	meta := make([]byte, store.PageSize())
	if err := store.ReadPage(0, meta); err != nil {
		return nil, err
	}
	if string(meta[:8]) != metaMagic {
		return nil, ErrNotRTree
	}
	return newTree(&Tree{
		rootPage: storage.PageID(binary.LittleEndian.Uint32(meta[8:])),
		height:   int(binary.LittleEndian.Uint32(meta[12:])),
		size:     int(binary.LittleEndian.Uint64(meta[16:])),
		numNodes: int(binary.LittleEndian.Uint32(meta[24:])),
		bounds: geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(meta[28:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(meta[36:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(meta[44:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(meta[52:])),
		},
	}, store, bufferBytes), nil
}

// Root returns the root node's page ID.
func (t *Tree) Root() storage.PageID { return t.rootPage }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Size returns the number of stored objects.
func (t *Tree) Size() int { return t.size }

// NumNodes returns the number of tree nodes (pages).
func (t *Tree) NumNodes() int { return t.numNodes }

// Bounds returns the MBR of all stored objects.
func (t *Tree) Bounds() geom.Rect { return t.bounds }

// Pool returns the tree's buffer pool (exposed for experiment control:
// invalidating between runs, reading hit/miss statistics).
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// ResizeBuffer replaces the buffer pool with a fresh (cold) one of the
// given byte capacity and re-derives the room for finished nodes from
// it: a pool that no longer holds the tree keeps none of them. Used by
// the memory-sensitivity experiments (paper Figure 13), between
// queries — it must not run while one is reading the tree.
func (t *Tree) ResizeBuffer(bytes int) {
	t.pool = storage.NewBufferPool(t.pool.Store(), bytes)
	t.rederiveRoom()
}

// ReadNode fetches and decodes the node on page id, reusing dst. The
// access is recorded against mc (which may be nil): one logical node
// access, whether it was physical (buffer miss), and the buffer pool
// hit/miss/eviction attribution.
func (t *Tree) ReadNode(id storage.PageID, dst *Node, mc *metrics.Collector) error {
	page, err := t.fetchNode(id, mc)
	if err != nil {
		return err
	}
	return decodeNode(page, dst)
}

// fetchNode returns node id's page through the buffer pool and records
// the access against mc: the one fetch-and-account step every node
// decoder (ReadNode, ReadNodeSoA, ReadNodeSoAOrdered) starts with.
func (t *Tree) fetchNode(id storage.PageID, mc *metrics.Collector) ([]byte, error) {
	page, acc, err := t.pool.GetAccounted(id)
	if err != nil {
		return nil, err
	}
	mc.NodeAccess(!acc.Hit, t.cost.RandomPageCost())
	mc.BufferAccess(acc.Hit, acc.Evictions)
	return page, nil
}

// ReadNodeSoA is ReadNode decoding into the struct-of-arrays layout:
// the same page fetch and metrics accounting, with the entry columns
// written into dst's reusable backing arrays.
func (t *Tree) ReadNodeSoA(id storage.PageID, dst *NodeSoA, mc *metrics.Collector) error {
	page, err := t.fetchNode(id, mc)
	if err != nil {
		return err
	}
	return decodeNodeSoA(page, dst)
}

// Search invokes fn for every object whose MBR intersects q, counting
// node accesses against mc. Returning false stops early.
func (t *Tree) Search(q geom.Rect, mc *metrics.Collector, fn func(Item) bool) error {
	_, err := t.searchPage(t.rootPage, q, mc, fn)
	return err
}

func (t *Tree) searchPage(id storage.PageID, q geom.Rect, mc *metrics.Collector, fn func(Item) bool) (bool, error) {
	var n Node
	if err := t.ReadNode(id, &n, mc); err != nil {
		return false, err
	}
	for _, e := range n.Entries {
		if !e.Rect.Intersects(q) {
			continue
		}
		if n.IsLeaf() {
			if !fn(Item{Rect: e.Rect, Obj: int64(e.Ref)}) {
				return false, nil
			}
		} else {
			cont, err := t.searchPage(storage.PageID(e.Ref), q, mc, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}

// Neighbor is one result of a nearest-neighbor query.
type Neighbor struct {
	Item Item
	Dist float64
}

// NearestNeighbors returns the k objects nearest to q in nondecreasing
// distance order, using the standard best-first traversal (Hjaltason &
// Samet ranking). Included for API completeness and as a single-tree
// cross-check of the two-tree distance join machinery.
func (t *Tree) NearestNeighbors(q geom.Rect, k int, mc *metrics.Collector) ([]Neighbor, error) {
	if k <= 0 || t.size == 0 {
		return nil, nil
	}
	type qe struct {
		dist  float64
		isObj bool
		page  storage.PageID
		item  Item
	}
	h := pqueue.NewHeap(func(a, b *qe) bool { return a.dist < b.dist })
	h.Push(qe{dist: 0, page: t.rootPage})
	var out []Neighbor
	var n Node
	for !h.Empty() && len(out) < k {
		top := h.Pop()
		if top.isObj {
			out = append(out, Neighbor{Item: top.item, Dist: top.dist})
			continue
		}
		if err := t.ReadNode(top.page, &n, mc); err != nil {
			return nil, err
		}
		for _, e := range n.Entries {
			d := q.MinDist(e.Rect)
			mc.AddRealDist(1)
			if n.IsLeaf() {
				h.Push(qe{dist: d, isObj: true, item: Item{Rect: e.Rect, Obj: int64(e.Ref)}})
			} else {
				h.Push(qe{dist: d, page: storage.PageID(e.Ref)})
			}
		}
	}
	return out, nil
}

// Walk visits every node top-down, invoking fn with each node's page
// ID and decoded contents. Used by tests and tooling.
func (t *Tree) Walk(fn func(id storage.PageID, n *Node) error) error {
	return t.walkPage(t.rootPage, fn)
}

func (t *Tree) walkPage(id storage.PageID, fn func(storage.PageID, *Node) error) error {
	var n Node
	if err := t.ReadNode(id, &n, nil); err != nil {
		return err
	}
	if err := fn(id, &n); err != nil {
		return err
	}
	if n.IsLeaf() {
		return nil
	}
	for _, e := range n.Entries {
		if err := t.walkPage(storage.PageID(e.Ref), fn); err != nil {
			return err
		}
	}
	return nil
}
