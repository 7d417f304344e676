package sweep

import (
	"sort"

	"distjoin/internal/rtree"
)

// soaOrder adapts a NodeSoA to sort.Interface for one sweep plan. The
// key column aliases the node's own coordinate slice for the plan's
// axis, so Less reads contiguous float64 memory and Swap permutes all
// columns in lockstep.
type soaOrder struct {
	s        *rtree.NodeSoA
	key      []float64
	backward bool
}

func (o *soaOrder) Len() int { return o.s.Len() }

func (o *soaOrder) Less(i, j int) bool {
	// Forward sweeps order by Min(axis) ascending; backward sweeps by
	// -Max(axis) ascending. Comparing the negated keys directly (rather
	// than key[j] < key[i]) keeps the NaN semantics bit-for-bit those of
	// sorting by that key, which the tests' reference sort does.
	if o.backward {
		return -o.key[i] < -o.key[j]
	}
	return o.key[i] < o.key[j]
}

func (o *soaOrder) Swap(i, j int) { o.s.Swap(i, j) }

// trackedOrder is soaOrder with an index column swapped in lockstep,
// so the sort also yields the permutation it applied.
type trackedOrder struct {
	soaOrder
	idx []uint16
}

func (o *trackedOrder) Swap(i, j int) {
	o.s.Swap(i, j)
	o.idx[i], o.idx[j] = o.idx[j], o.idx[i]
}

// SoASorter sorts NodeSoA nodes into sweep order. The zero value is
// ready; keeping one per goroutine amortizes the sort.Interface
// adapters and the index column so repeated sorts allocate nothing.
type SoASorter struct {
	o soaOrder
	t trackedOrder
}

// Sort permutes s into sweep order for plan p: lower bound ascending
// going forward, upper bound descending going backward, equal keys in
// the order the standard library's pdqsort leaves them for this length
// and less-relation (sort.Slice over row-major entries, the tests'
// reference, leaves the same).
func (ss *SoASorter) Sort(s *rtree.NodeSoA, p Plan) {
	ss.o = newSoaOrder(s, p)
	sort.Sort(&ss.o)
	ss.o = soaOrder{} // drop the aliases so the node isn't pinned
}

func newSoaOrder(s *rtree.NodeSoA, p Plan) soaOrder {
	o := soaOrder{s: s, key: s.Lo(p.Axis), backward: p.Dir == Backward}
	if o.backward {
		o.key = s.Hi(p.Axis)
	}
	return o
}

// SortTracked is Sort that also returns the permutation applied:
// perm[i] is the position the entry now at i held before the call. Less
// and the column swaps are Sort's, so both sort identically; the index
// column only rides along. The result aliases the sorter's scratch and
// is valid until its next SortTracked; rtree.Tree.PublishSweepOrder
// copies it into the tree's sweep-order memo.
func (ss *SoASorter) SortTracked(s *rtree.NodeSoA, p Plan) (perm []uint16) {
	n := s.Len()
	if cap(ss.t.idx) < n {
		ss.t.idx = make([]uint16, n)
	}
	ss.t.idx = ss.t.idx[:n]
	for i := range ss.t.idx {
		ss.t.idx[i] = uint16(i)
	}
	ss.t.soaOrder = newSoaOrder(s, p)
	sort.Sort(&ss.t)
	ss.t.soaOrder = soaOrder{}
	return ss.t.idx
}
