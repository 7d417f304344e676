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

// ErrCorruptNode is returned, wrapped, by a descent (Search,
// NearestNeighbors, Walk, and the joins' own in internal/join) that
// follows a child ref to a page which
// cannot be that child: its header does not claim the level below its
// parent's, or the ref is no page ID at all. Levels falling by one per
// step is what bounds a descent over damaged pages by the height the
// headers claim; a ref past the store's last page is the pool's
// storage.ErrPageOutOfRange instead.
var ErrCorruptNode = errors.New("rtree: corrupt node")

// Tree is a read-only paged R-tree: the query-time image of a Builder,
// read through a buffer pool. All node fetches are counted against the
// supplied metrics collector, distinguishing logical accesses from
// physical (buffer-miss) reads, which is exactly the accounting of the
// paper's Table 2.
type Tree struct {
	pool     *storage.BufferPool
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

// fetchNode pins node id's page in the buffer pool and records the
// access against mc: the one fetch-and-account step both node reads
// (ReadNodeSoA, ReadNodeSoAOrdered) start with. The caller releases the
// frame once it has decoded the page; nothing it returns refers to it.
func (t *Tree) fetchNode(id storage.PageID, mc *metrics.Collector) (*storage.Frame, error) {
	f, acc, err := t.pool.Pin(id)
	if err != nil {
		return nil, err
	}
	mc.NodeAccess(!acc.Hit, metrics.RandomPageCost)
	mc.BufferAccess(acc.Hit, acc.Evictions)
	return f, nil
}

// ReadNodeSoA fetches and decodes the node on page id in page order,
// reusing dst's backing arrays. The access is recorded against mc
// (which may be nil): one logical node access, whether it was physical
// (buffer miss), and the buffer pool hit/miss/eviction attribution.
func (t *Tree) ReadNodeSoA(id storage.PageID, dst *NodeSoA, mc *metrics.Collector) error {
	f, err := t.fetchNode(id, mc)
	if err != nil {
		return err
	}
	err = decodeNodeSoA(f.Bytes(), dst)
	f.Release()
	return err
}

// visit is one pending step of a descent: the child ref to follow and
// the level the page behind it must claim (anyLevel for the root, which
// has no parent to contradict).
type visit struct {
	ref   uint64
	level int
}

const anyLevel = -1

// readVisit is ReadNodeSoA for a descent: the same fetch and the same
// accounting, and then the check that v led where its parent said.
func (t *Tree) readVisit(v visit, dst *NodeSoA, mc *metrics.Collector) error {
	if v.ref > math.MaxUint32 {
		return fmt.Errorf("%w: child ref %#x is not a page id", ErrCorruptNode, v.ref)
	}
	if err := t.ReadNodeSoA(storage.PageID(v.ref), dst, mc); err != nil {
		return err
	}
	if v.level != anyLevel && dst.Level != v.level {
		return fmt.Errorf("%w: page %d claims level %d, its parent's entry level %d",
			ErrCorruptNode, v.ref, dst.Level, v.level)
	}
	return nil
}

// Search invokes fn for every object whose MBR intersects q, counting
// node accesses against mc. Returning false stops early. Nodes are read
// and objects reported depth first in entry order: the stack takes a
// node's children last entry first.
func (t *Tree) Search(q geom.Rect, mc *metrics.Collector, fn func(Item) bool) error {
	var n NodeSoA
	stack := []visit{{ref: uint64(t.rootPage), level: anyLevel}}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := t.readVisit(v, &n, mc); err != nil {
			return err
		}
		if n.IsLeaf() {
			for i := 0; i < n.Len(); i++ {
				if r := n.Rect(i); r.Intersects(q) && !fn(Item{Rect: r, Obj: int64(n.Refs[i])}) {
					return nil
				}
			}
			continue
		}
		for i := n.Len() - 1; i >= 0; i-- {
			if n.Rect(i).Intersects(q) {
				stack = append(stack, visit{ref: n.Refs[i], level: n.Level - 1})
			}
		}
	}
	return nil
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
	// A queue element is one node entry, an object or the child to
	// read next, in 56 bytes: the heap copies it at every sift.
	type qe struct {
		dist  float64
		rect  geom.Rect // the object's MBR
		ref   uint64    // the object's ID, or the child's page
		level int32     // the level the child must claim
		isObj bool
	}
	h := pqueue.NewHeap(func(a, b *qe) bool { return a.dist < b.dist })
	h.Push(qe{ref: uint64(t.rootPage), level: anyLevel})
	var out []Neighbor
	var n NodeSoA
	for !h.Empty() && len(out) < k {
		top := h.Pop()
		if top.isObj {
			out = append(out, Neighbor{Item: Item{Rect: top.rect, Obj: int64(top.ref)}, Dist: top.dist})
			continue
		}
		if err := t.readVisit(visit{ref: top.ref, level: int(top.level)}, &n, mc); err != nil {
			return nil, err
		}
		for i := 0; i < n.Len(); i++ {
			e := qe{rect: n.Rect(i), ref: n.Refs[i], level: int32(n.Level - 1), isObj: n.IsLeaf()}
			e.dist = q.MinDist(e.rect)
			mc.AddRealDist(1)
			h.Push(e)
		}
	}
	return out, nil
}

// Walk visits every node top-down, depth first in entry order,
// invoking fn with each node's page ID and decoded contents. n is one
// node reused from call to call: fn must not write it or keep it. Used
// by tests and tooling.
func (t *Tree) Walk(fn func(id storage.PageID, n *NodeSoA) error) error {
	var n NodeSoA
	stack := []visit{{ref: uint64(t.rootPage), level: anyLevel}}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := t.readVisit(v, &n, nil); err != nil {
			return err
		}
		if err := fn(storage.PageID(v.ref), &n); err != nil {
			return err
		}
		if n.IsLeaf() {
			continue
		}
		for i := n.Len() - 1; i >= 0; i-- {
			stack = append(stack, visit{ref: n.Refs[i], level: n.Level - 1})
		}
	}
	return nil
}
