package distjoin

import (
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// Builder is a mutable in-memory R*-tree for workloads that accumulate
// and remove objects over time. Query-time structures (Index) are
// immutable; call Snapshot to freeze the current contents into an
// Index for join queries. Insertion uses the full R*-tree algorithm
// (choose-subtree, forced reinsertion, topological split); deletion
// condenses underfull nodes.
//
// A Builder is not safe for concurrent use; Snapshots are independent
// of later Builder mutations and are safe for concurrent queries.
type Builder struct {
	b        *rtree.Builder
	pageSize int
}

// NewBuilder returns an empty mutable index with the given
// configuration (nil selects the defaults used by NewIndex).
func NewBuilder(cfg *IndexConfig) (*Builder, error) {
	rb, err := rtree.NewBuilderForPageSize(cfg.pageSize())
	if err != nil {
		return nil, err
	}
	return &Builder{b: rb, pageSize: cfg.pageSize()}, nil
}

// Insert adds one object.
func (b *Builder) Insert(o Object) error {
	if err := checkObject(o); err != nil {
		return err
	}
	b.b.Insert(o.Rect, o.ID)
	return nil
}

// Delete removes the object with the given ID and exact rectangle,
// reporting whether it was present.
func (b *Builder) Delete(o Object) bool {
	return b.b.Delete(o.Rect, o.ID)
}

// BulkReplace discards the current contents and bulk-loads objects
// (Sort-Tile-Recursive packing — much faster than repeated Insert for
// large initial loads).
func (b *Builder) BulkReplace(objects []Object) error {
	items := make([]rtree.Item, len(objects))
	for i, o := range objects {
		if err := checkObject(o); err != nil {
			return err
		}
		items[i] = rtree.Item{Rect: o.Rect, Obj: o.ID}
	}
	b.b.BulkLoad(items)
	return nil
}

// Len returns the number of stored objects.
func (b *Builder) Len() int { return b.b.Size() }

// Bounds returns the MBR of all stored objects.
func (b *Builder) Bounds() Rect { return b.b.Bounds() }

// Search invokes fn for every stored object intersecting query;
// returning false stops early.
func (b *Builder) Search(query Rect, fn func(Object) bool) {
	b.b.Search(query, func(it rtree.Item) bool {
		return fn(Object{ID: it.Obj, Rect: it.Rect})
	})
}

// Snapshot freezes the current contents into an immutable, paged Index
// for join queries. Later Builder mutations do not affect the snapshot.
func (b *Builder) Snapshot(cfg *IndexConfig) (*Index, error) {
	tree, err := b.b.Pack(storage.NewMemStore(b.pageSize), cfg.bufferBytes())
	if err != nil {
		return nil, err
	}
	return &Index{tree: tree}, nil
}

// SnapshotFile freezes the current contents into an Index persisted at
// path (reopen with OpenIndexFile).
func (b *Builder) SnapshotFile(path string, cfg *IndexConfig) (*Index, error) {
	store, err := storage.CreateFileStore(path, b.pageSize)
	if err != nil {
		return nil, err
	}
	tree, err := b.b.Pack(store, cfg.bufferBytes())
	if err != nil {
		store.Close()
		return nil, err
	}
	return &Index{tree: tree}, nil
}

// TreeStats describes the structure of an Index's R-tree, for capacity
// planning and diagnostics.
type TreeStats struct {
	// Objects is the number of indexed objects.
	Objects int
	// Height is the number of tree levels (1 = the root is a leaf).
	Height int
	// Nodes is the total node (page) count.
	Nodes int
	// NodesPerLevel counts nodes by level, leaves first.
	NodesPerLevel []int
	// AvgLeafFill is the mean leaf utilization relative to capacity.
	AvgLeafFill float64
	// PageSize is the node page size in bytes.
	PageSize int
}

// Stats walks the index and returns its structural statistics.
func (idx *Index) Stats() (TreeStats, error) {
	st := TreeStats{
		Objects:       idx.tree.Size(),
		Height:        idx.tree.Height(),
		Nodes:         idx.tree.NumNodes(),
		NodesPerLevel: make([]int, idx.tree.Height()),
		PageSize:      idx.tree.Pool().PageSize(),
	}
	capacity := rtree.PageCapacity(st.PageSize)
	leafEntries := 0
	err := idx.tree.Walk(func(_ storage.PageID, n *rtree.NodeSoA) error {
		if n.Level < len(st.NodesPerLevel) {
			st.NodesPerLevel[n.Level]++
		}
		if n.IsLeaf() {
			leafEntries += n.Len()
		}
		return nil
	})
	if err != nil {
		return TreeStats{}, err
	}
	if leaves := st.NodesPerLevel[0]; leaves > 0 && capacity > 0 {
		st.AvgLeafFill = float64(leafEntries) / float64(leaves*capacity)
	}
	return st, nil
}
