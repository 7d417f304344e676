package rtree_test

import (
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/sweep"
)

var allPlans = []sweep.Plan{
	{Axis: 0, Dir: sweep.Forward}, {Axis: 0, Dir: sweep.Backward},
	{Axis: 1, Dir: sweep.Forward}, {Axis: 1, Dir: sweep.Backward},
}

// hostileNodes packs a tiny valid tree (for the metadata page) and
// appends one raw node page per requested entry count, with coordinates
// drawn from a coarse grid plus NaN and ±Inf, so duplicate and
// unordered sweep keys are the rule. It returns a fresh view over the
// store (cold memo) and the appended page IDs.
func hostileNodes(t testing.TB, rng *rand.Rand, pageSize int, counts []int) (*rtree.Tree, []storage.PageID) {
	t.Helper()
	store := storage.NewMemStore(pageSize)
	b, err := rtree.NewBuilderForPageSize(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	b.BulkLoad([]rtree.Item{{Rect: geom.NewRect(0, 0, 1, 1), Obj: 1}})
	if _, err := b.Pack(store, pageSize); err != nil {
		t.Fatal(err)
	}
	coord := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return float64(rng.Intn(6))
	}
	page := make([]byte, pageSize)
	var ids []storage.PageID
	for _, n := range counts {
		entries := make([]rtree.NodeEntry, n)
		for i := range entries {
			entries[i] = rtree.NodeEntry{
				Rect: geom.Rect{MinX: coord(), MinY: coord(), MaxX: coord(), MaxY: coord()},
				Ref:  uint64(i),
			}
		}
		if err := rtree.EncodeTestNode(page, rng.Intn(3), entries); err != nil {
			t.Fatal(err)
		}
		id, err := store.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	view, err := rtree.Open(store, 8*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return view, ids
}

// sameBits fails unless got and want agree in level, length, every
// coordinate column bit for bit (NaN payloads included) and every ref.
func sameBits(t *testing.T, what string, got, want *rtree.NodeSoA) {
	t.Helper()
	if got.Level != want.Level || got.Len() != want.Len() {
		t.Fatalf("%s: level/len (%d,%d), want (%d,%d)", what, got.Level, got.Len(), want.Level, want.Len())
	}
	cols := [4][2][]float64{{got.MinX, want.MinX}, {got.MinY, want.MinY}, {got.MaxX, want.MaxX}, {got.MaxY, want.MaxY}}
	for c, col := range cols {
		for i := range col[1] {
			if math.Float64bits(col[0][i]) != math.Float64bits(col[1][i]) {
				t.Fatalf("%s: column %d entry %d = %v, want %v", what, c, i, col[0][i], col[1][i])
			}
		}
	}
	for i, r := range want.Refs {
		if got.Refs[i] != r {
			t.Fatalf("%s: ref %d = %d, want %d", what, i, got.Refs[i], r)
		}
	}
}

// TestOrderedDecodeMatchesDecodeAndSort pins the identity the
// sweep-order memo rests on, for both index widths: on a miss the
// tracked sort leaves the node exactly as SoASorter.Sort does, and on a
// hit the ordered decode reproduces that node bit for bit — with
// duplicate, NaN and infinite keys, under all four plans, and whatever
// happens to the buffer pool in between.
func TestOrderedDecodeMatchesDecodeAndSort(t *testing.T) {
	for _, pageSize := range []int{4096, 16384} { // capacities 102 (byte indices) and 409 (16-bit)
		rng := rand.New(rand.NewSource(int64(pageSize)))
		capacity := rtree.PageCapacity(pageSize)
		counts := []int{0, 1, 2, 3, capacity}
		for i := 0; i < 40; i++ {
			counts = append(counts, 2+rng.Intn(capacity-1))
		}
		view, ids := hostileNodes(t, rng, pageSize, counts)
		var want, got rtree.NodeSoA
		var sorter sweep.SoASorter
		for _, id := range ids {
			for _, p := range allPlans {
				if err := view.ReadNodeSoA(id, &want, nil); err != nil {
					t.Fatal(err)
				}
				n := want.Len()
				sorter.Sort(&want, p)

				ordered, err := view.ReadNodeSoAOrdered(id, p.Slot(), &got, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ordered != (n < 2) {
					t.Fatalf("page %d plan %+v: cold memo reports ordered=%v for %d entries", id, p, ordered, n)
				}
				if n < 2 {
					sameBits(t, "short node", &got, &want)
					continue
				}
				view.PublishSweepOrder(id, p.Slot(), sorter.SortTracked(&got, p))
				sameBits(t, "tracked sort", &got, &want)

				if err := view.Pool().Invalidate(); err != nil {
					t.Fatal(err)
				}
				if ordered, err = view.ReadNodeSoAOrdered(id, p.Slot(), &got, nil); err != nil || !ordered {
					t.Fatalf("page %d plan %+v: warm memo: ordered=%v err=%v", id, p, ordered, err)
				}
				sameBits(t, "ordered decode", &got, &want)
			}
		}
		view.ResizeBuffer(2 * pageSize)
		if ordered, _ := view.ReadNodeSoAOrdered(ids[len(ids)-1], 0, &got, nil); !ordered {
			t.Fatal("ResizeBuffer dropped the memo")
		}
	}
}

// TestOrderedDecodeDistrustsBadPermutations: a memoized permutation of
// the wrong length is ignored (page-order decode, ordered=false, so the
// caller re-sorts and republishes), and one holding an index outside
// its own length is never stored.
func TestOrderedDecodeDistrustsBadPermutations(t *testing.T) {
	const n = 9
	view, ids := hostileNodes(t, rand.New(rand.NewSource(4)), 4096, []int{n})
	id := ids[0]
	var pageOrder, got rtree.NodeSoA
	if err := view.ReadNodeSoA(id, &pageOrder, nil); err != nil {
		t.Fatal(err)
	}
	identity := func(n int) []uint16 {
		p := make([]uint16, n)
		for i := range p {
			p[i] = uint16(i)
		}
		return p
	}
	for _, wrong := range []int{n - 1, n + 1, 0, 300} {
		view.PublishSweepOrder(id, 0, identity(wrong))
		ordered, err := view.ReadNodeSoAOrdered(id, 0, &got, nil)
		if err != nil || ordered {
			t.Fatalf("length %d for %d entries: ordered=%v err=%v, want a fallback", wrong, n, ordered, err)
		}
		sameBits(t, "fallback decode", &got, &pageOrder)
	}

	reversed := identity(n)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	view.PublishSweepOrder(id, 0, reversed)
	outOfRange := identity(n)
	outOfRange[3] = n
	view.PublishSweepOrder(id, 0, outOfRange) // must not replace reversed
	if ordered, err := view.ReadNodeSoAOrdered(id, 0, &got, nil); err != nil || !ordered {
		t.Fatalf("ordered=%v err=%v", ordered, err)
	}
	for i := range got.Refs {
		if got.Refs[i] != pageOrder.Refs[n-1-i] {
			t.Fatalf("entry %d: ref %d, want the reversed order's %d", i, got.Refs[i], pageOrder.Refs[n-1-i])
		}
	}

	// Slots and pages outside the table are a no-op, not a panic.
	view.PublishSweepOrder(id, rtree.SweepSlots, identity(n))
	view.PublishSweepOrder(id+1000, 0, identity(n))
	if ordered, err := view.ReadNodeSoAOrdered(id, -1, &got, nil); err != nil || ordered {
		t.Fatalf("slot -1: ordered=%v err=%v", ordered, err)
	}
}

// TestSweepOrderMemoAllocs pins the memo's allocation contract at the
// tree: a hit decodes into a warm NodeSoA without allocating, and a
// publish allocates the permutation (header and index array) only.
func TestSweepOrderMemoAllocs(t *testing.T) {
	view, ids := hostileNodes(t, rand.New(rand.NewSource(6)), 4096, []int{60})
	var soa rtree.NodeSoA
	var sorter sweep.SoASorter
	p := allPlans[3]
	miss := func() {
		if err := view.ReadNodeSoA(ids[0], &soa, nil); err != nil {
			t.Fatal(err)
		}
		view.PublishSweepOrder(ids[0], p.Slot(), sorter.SortTracked(&soa, p))
	}
	miss()
	if avg := testing.AllocsPerRun(100, miss); avg > 2 {
		t.Errorf("sort + publish allocates %v, want the published permutation only (2)", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if ordered, err := view.ReadNodeSoAOrdered(ids[0], p.Slot(), &soa, nil); err != nil || !ordered {
			t.Fatalf("ordered=%v err=%v", ordered, err)
		}
	}); avg != 0 {
		t.Errorf("ordered decode allocates %v, want 0", avg)
	}
}
