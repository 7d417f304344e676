package rtree_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/sweep"
)

var allPlans = []sweep.Plan{
	{Axis: 0, Dir: sweep.Forward}, {Axis: 0, Dir: sweep.Backward},
	{Axis: 1, Dir: sweep.Forward}, {Axis: 1, Dir: sweep.Backward},
}

// openView opens a fresh view (cold pool, empty memo) over store with a
// pool of the given number of pages.
func openView(t testing.TB, store storage.Store, poolPages int) *rtree.Tree {
	t.Helper()
	view, err := rtree.Open(store, poolPages*store.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// hostilePage is a raw node page hostileStore appended, and the level
// its header claims, which a reader must expect to pin it.
type hostilePage struct {
	id    storage.PageID
	level int
}

// hostileStore packs a tiny valid tree (for the metadata page) and
// appends one raw node page per requested entry count, at a random
// level, with bounds drawn from a coarse grid plus ±Inf, so duplicate
// entries, tied and infinite sweep keys and zero-width rectangles are
// the rule. Every entry is one PinnedNode.Decode accepts: its bounds
// are ordered; a page of no entries is not, as the tree holds an
// object. It returns the store and the appended pages.
func hostileStore(t testing.TB, rng *rand.Rand, pageSize int, counts []int) (storage.Store, []hostilePage) {
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
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return float64(rng.Intn(6))
	}
	bounds := func() (lo, hi float64) {
		a, b := coord(), coord()
		return min(a, b), max(a, b)
	}
	page := make([]byte, pageSize)
	var pages []hostilePage
	for _, n := range counts {
		entries := make([]rtree.TestEntry, n)
		for i := range entries {
			var r geom.Rect
			r.MinX, r.MaxX = bounds()
			r.MinY, r.MaxY = bounds()
			entries[i] = rtree.TestEntry{Rect: r, Ref: uint64(i)}
		}
		level := rng.Intn(3)
		if err := rtree.EncodeTestNode(page, level, entries); err != nil {
			t.Fatal(err)
		}
		id, err := store.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, hostilePage{id: id, level: level})
	}
	return store, pages
}

// readOrdered reads page pg in slot's order the way an expansion does:
// PinNode with the level the page claims, Ordered, Release.
func readOrdered(view *rtree.Tree, pg hostilePage, slot int, scratch *rtree.NodeSoA) (n *rtree.NodeSoA, ordered bool, err error) {
	pin, err := view.PinNode(pg.id, pg.level, nil)
	if err != nil {
		return nil, false, err
	}
	defer pin.Release()
	return pin.Ordered(slot, scratch)
}

// finish stands in for what the join does to a node between sorting and
// publishing it (stamping child levels into the refs): any rewrite of
// the refs will do to show that the tree hands back the node as
// published, not as decoded.
func finish(n *rtree.NodeSoA) {
	for i := range n.Refs {
		n.Refs[i] |= uint64(n.Level+1) << 48
	}
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
// sweep-order memo rests on, for both index widths and both forms a
// cell takes: on a miss the tracked sort leaves the node exactly as
// SoASorter.Sort does, and on a hit the node to sweep — the page decoded
// through the memoized permutation where the pool leaves no room, the
// tree's own finished node where it does — equals decode + sort + finish
// bit for bit, with duplicate, tied and infinite keys, under all four
// plans, and whatever happens to the buffer pool in between. The page
// of no entries, in a tree that holds an object, is ErrCorruptNode from
// the checked read and is never published.
func TestOrderedDecodeMatchesDecodeAndSort(t *testing.T) {
	for _, pageSize := range []int{4096, 16384} { // capacities 102 (byte indices) and 409 (16-bit)
		rng := rand.New(rand.NewSource(int64(pageSize)))
		capacity := rtree.PageCapacity(pageSize)
		counts := []int{0, 1, 2, 3, capacity}
		for i := 0; i < 40; i++ {
			counts = append(counts, 2+rng.Intn(capacity-1))
		}
		store, pages := hostileStore(t, rng, pageSize, counts)
		for _, resident := range []bool{false, true} {
			poolPages := 8
			if resident {
				poolPages = 6 * store.NumPages() // four decoded copies of every page fit beside the pages
			}
			view := openView(t, store, poolPages)
			var want, got rtree.NodeSoA
			var sorter sweep.SoASorter
			published := 0
			for i, pg := range pages {
				id := pg.id
				if counts[i] == 0 {
					for _, p := range allPlans {
						if _, _, err := readOrdered(view, pg, p.Slot(), &got); !errors.Is(err, rtree.ErrCorruptNode) {
							t.Fatalf("page %d of no entries, plan %+v: error %v, want ErrCorruptNode", id, p, err)
						}
					}
					continue
				}
				published++
				for _, p := range allPlans {
					if err := view.ReadNodeSoA(id, &want, nil); err != nil {
						t.Fatal(err)
					}
					count := want.Len()
					sorter.Sort(&want, p)

					n, ordered, err := readOrdered(view, pg, p.Slot(), &got)
					if err != nil {
						t.Fatal(err)
					}
					if n != &got || ordered != (count < 2) {
						t.Fatalf("page %d plan %+v: cold memo: shared=%v ordered=%v for %d entries", id, p, n != &got, ordered, count)
					}
					var perm []uint16
					if !ordered {
						perm = sorter.SortTracked(&got, p)
					}
					sameBits(t, "tracked sort", &got, &want)
					finish(&got)
					finish(&want)
					view.PublishSweepOrder(id, p.Slot(), perm, &got)

					if err := view.Pool().Invalidate(); err != nil {
						t.Fatal(err)
					}
					got.Reset(0)
					n, ordered, err = readOrdered(view, pg, p.Slot(), &got)
					if err != nil || !ordered || (n != &got) != resident {
						t.Fatalf("page %d plan %+v: warm memo: shared=%v ordered=%v err=%v", id, p, n != &got, ordered, err)
					}
					if !resident {
						finish(n) // a permutation replays the order; finishing is the reader's
					}
					sameBits(t, "memoized node", n, &want)
				}
			}
			if nodes, used, room := view.DecodedNodes(); resident != (nodes == rtree.SweepSlots*published) || used > room {
				t.Fatalf("resident=%v: %d decoded nodes of %d cells, %d of %d bytes", resident, nodes, rtree.SweepSlots*published, used, room)
			}
		}
	}
}

// TestOrderedDecodeDistrustsBadPermutations: a memoized permutation or node of
// the wrong length is ignored (page-order decode, ordered=false, so the
// caller re-sorts and republishes, and the distrusted node's charge is
// returned), and a permutation holding an index outside its own length
// is never stored.
func TestOrderedDecodeDistrustsBadPermutations(t *testing.T) {
	const n = 9
	store, pages := hostileStore(t, rand.New(rand.NewSource(4)), 4096, []int{n})
	pg := pages[0]
	id := pg.id
	view := openView(t, store, 1) // no room: permutations
	var pageOrder, got, decoy rtree.NodeSoA
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
	fallsBack := func(view *rtree.Tree, what string) {
		t.Helper()
		got.Reset(0)
		node, ordered, err := readOrdered(view, pg, 0, &got)
		if err != nil || ordered || node != &got {
			t.Fatalf("%s over %d entries: shared=%v ordered=%v err=%v, want a fallback", what, n, node != &got, ordered, err)
		}
		sameBits(t, "fallback decode", &got, &pageOrder)
	}
	for _, wrong := range []int{n - 1, n + 1, 0, 300} {
		decoy.Reset(wrong)
		view.PublishSweepOrder(id, 0, identity(wrong), &decoy)
		fallsBack(view, "wrong-length permutation")
	}

	reversed := identity(n)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	view.PublishSweepOrder(id, 0, reversed, &pageOrder)
	outOfRange := identity(n)
	outOfRange[3] = n
	view.PublishSweepOrder(id, 0, outOfRange, &pageOrder) // must not replace reversed
	if node, ordered, err := readOrdered(view, pg, 0, &got); err != nil || !ordered || node != &got {
		t.Fatalf("shared=%v ordered=%v err=%v", node != &got, ordered, err)
	}
	for i := range got.Refs {
		if got.Refs[i] != pageOrder.Refs[n-1-i] {
			t.Fatalf("entry %d: ref %d, want the reversed order's %d", i, got.Refs[i], pageOrder.Refs[n-1-i])
		}
	}

	// Slots and pages outside the table are a no-op, not a panic.
	view.PublishSweepOrder(id, rtree.SweepSlots, identity(n), &pageOrder)
	view.PublishSweepOrder(id+1000, 0, identity(n), &pageOrder)
	if _, ordered, err := readOrdered(view, pg, -1, &got); err != nil || ordered {
		t.Fatalf("slot -1: ordered=%v err=%v", ordered, err)
	}

	// With room the same distrust applies to a stored node: wrong
	// lengths are ignored, the rebuilt node replaces them, and the room
	// is charged for the one node the cell holds.
	view = openView(t, store, 2*store.NumPages())
	for _, wrong := range []int{n - 1, n + 1, 0, 300} {
		decoy.Reset(wrong)
		view.PublishSweepOrder(id, 0, nil, &decoy)
		if nodes, _, _ := view.DecodedNodes(); nodes != 1 {
			t.Fatalf("planting a %d-entry node left %d decoded nodes, want 1", wrong, nodes)
		}
		fallsBack(view, "wrong-length node")
	}
	view.PublishSweepOrder(id, 0, identity(n), &pageOrder)
	node, ordered, err := readOrdered(view, pg, 0, &got)
	if err != nil || !ordered || node == &got {
		t.Fatalf("after republishing: shared=%v ordered=%v err=%v", node != &got, ordered, err)
	}
	sameBits(t, "republished node", node, &pageOrder)
	if nodes, used, _ := view.DecodedNodes(); nodes != 1 || used != rtree.DecodedBytes(n) {
		t.Fatalf("%d decoded nodes charged %d bytes, want 1 charged %d", nodes, used, rtree.DecodedBytes(n))
	}
}

// TestDecodedNodeRoom pins the memory rule: finished nodes are charged
// against the pool capacity the tree's pages leave unused. A pool one
// page short of the tree keeps none; a pool with room for N keeps the
// first N offered and permutations after that, never evicting; and
// ResizeBuffer re-derives the room, dropping the nodes a smaller pool
// cannot carry and letting a larger one refill.
func TestDecodedNodeRoom(t *testing.T) {
	const pageSize, entries = 4096, 50
	counts := make([]int, 12)
	for i := range counts {
		counts[i] = entries
	}
	store, pages := hostileStore(t, rand.New(rand.NewSource(8)), pageSize, counts)
	var sorter sweep.SoASorter
	var scratch rtree.NodeSoA
	// fill reads every (node, slot) as a sweep would and returns how
	// many reads the tree answered with its own finished node.
	fill := func(view *rtree.Tree) (shared int) {
		t.Helper()
		for _, pg := range pages {
			for _, p := range allPlans {
				n, ordered, err := readOrdered(view, pg, p.Slot(), &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if n != &scratch {
					shared++
					continue
				}
				var perm []uint16
				if !ordered {
					perm = sorter.SortTracked(&scratch, p)
				}
				view.PublishSweepOrder(pg.id, p.Slot(), perm, &scratch)
			}
		}
		return shared
	}
	cells := rtree.SweepSlots * len(pages)
	perNode := rtree.DecodedBytes(entries)
	for _, tc := range []struct {
		name      string
		poolPages int
		want      int
	}{
		{"one page short of the tree", store.NumPages() - 1, 0},
		{"exactly the tree", store.NumPages(), 0},
		{"three spare pages", store.NumPages() + 3, int(3 * pageSize / perNode)},
		{"room for everything", store.NumPages() + cells, cells},
	} {
		view := openView(t, store, tc.poolPages)
		if shared := fill(view); shared != 0 {
			t.Fatalf("%s: a fresh view returned %d shared nodes", tc.name, shared)
		}
		nodes, used, room := view.DecodedNodes()
		if nodes != tc.want || used != int64(nodes)*perNode || used > room {
			t.Fatalf("%s: %d decoded nodes (%d of %d bytes), want %d", tc.name, nodes, used, room, tc.want)
		}
		// The second pass hits every cell — node or permutation — and
		// changes nothing: no cell is evicted to make room for another.
		if shared := fill(view); shared != tc.want {
			t.Fatalf("%s: second pass read %d shared nodes, want %d", tc.name, shared, tc.want)
		}
		if again, _, _ := view.DecodedNodes(); again != nodes {
			t.Fatalf("%s: second pass moved the decoded nodes from %d to %d", tc.name, nodes, again)
		}
	}

	view := openView(t, store, store.NumPages()+cells)
	fill(view)
	view.ResizeBuffer((store.NumPages() - 1) * pageSize)
	if nodes, used, room := view.DecodedNodes(); nodes != 0 || used != 0 || room != 0 {
		t.Fatalf("after shrinking below the tree: %d decoded nodes, %d of %d bytes", nodes, used, room)
	}
	if shared := fill(view); shared != 0 {
		t.Fatalf("a pool that does not hold the tree served %d shared nodes", shared)
	}
	view.ResizeBuffer((store.NumPages() + cells) * pageSize)
	fill(view) // permutation hits, each offered back and kept as a node
	if nodes, _, _ := view.DecodedNodes(); nodes != cells {
		t.Fatalf("after growing back: %d decoded nodes, want %d", nodes, cells)
	}
	if shared := fill(view); shared != cells {
		t.Fatalf("after growing back: %d shared reads, want %d", shared, cells)
	}
	// A smaller pool that still carries what is published keeps it.
	view.ResizeBuffer((store.NumPages() + cells - 1) * pageSize)
	if nodes, _, _ := view.DecodedNodes(); nodes != cells {
		t.Fatalf("a pool with room to spare dropped nodes: %d left of %d", nodes, cells)
	}
}

// TestSweepOrderMemoAllocs pins the memo's allocation contract at the
// tree: a hit allocates nothing — the permutation decodes into a warm
// NodeSoA, the finished node is returned in place — and a publish
// allocates what it stores only: the permutation (cell and index array)
// or the node (cell, node header, coordinate block, refs).
func TestSweepOrderMemoAllocs(t *testing.T) {
	store, pages := hostileStore(t, rand.New(rand.NewSource(6)), 4096, []int{60})
	pg := pages[0]
	var soa, other rtree.NodeSoA
	var sorter sweep.SoASorter
	p := allPlans[3]
	other.Reset(1) // a one-entry node or permutation makes the next read distrust the cell
	forget := func(view *rtree.Tree) { view.PublishSweepOrder(pg.id, p.Slot(), []uint16{0}, &other) }
	for _, tc := range []struct {
		name      string
		poolPages int
		publish   float64
	}{
		{"permutation", 1, 2},
		{"node", 2 * store.NumPages(), 4},
	} {
		view := openView(t, store, tc.poolPages)
		miss := func() {
			forget(view)
			if n, ordered, err := readOrdered(view, pg, p.Slot(), &soa); err != nil || ordered || n != &soa {
				t.Fatalf("%s: distrusted cell: ordered=%v err=%v", tc.name, ordered, err)
			}
			view.PublishSweepOrder(pg.id, p.Slot(), sorter.SortTracked(&soa, p), &soa)
		}
		miss()
		// forget stores a cell of the same form, so a miss is two publishes.
		if avg := testing.AllocsPerRun(100, miss) / 2; avg > tc.publish {
			t.Errorf("%s: sort + publish allocates %v, want what is stored only (%v)", tc.name, avg, tc.publish)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if _, ordered, err := readOrdered(view, pg, p.Slot(), &soa); err != nil || !ordered {
				t.Fatalf("ordered=%v err=%v", ordered, err)
			}
		}); avg != 0 {
			t.Errorf("%s: memo hit allocates %v, want 0", tc.name, avg)
		}
	}
}

// TestPinnedNodeAccountsOnce: a pin is one accounted access however
// much is read from it — its header, its grid, the node in every sweep
// order — whatever the memo holds for the page: nothing, a node of the
// wrong length, a finished node, or a permutation.
func TestPinnedNodeAccountsOnce(t *testing.T) {
	const n = 9
	store, pages := hostileStore(t, rand.New(rand.NewSource(5)), 4096, []int{n})
	id, level := pages[0].id, pages[0].level
	var pageOrder, decoy, got rtree.NodeSoA
	check := func(view *rtree.Tree, what string) {
		t.Helper()
		var mc metrics.Collector
		pin, err := view.PinNode(id, level, &mc)
		if err != nil {
			t.Fatal(err)
		}
		defer pin.Release()
		if _, count := pin.Header(); count != n {
			t.Fatalf("%s: the header claims %d entries, want %d", what, count, n)
		}
		pin.Grid()
		for _, p := range allPlans {
			node, _, err := pin.Ordered(p.Slot(), &got)
			if err != nil {
				t.Fatal(err)
			}
			if node.Len() != n {
				t.Fatalf("%s: slot %d gives %d entries, want %d", what, p.Slot(), node.Len(), n)
			}
		}
		if mc.NodeAccessesLogical != 1 {
			t.Fatalf("%s: a pin and four orders counted %d node accesses, want 1", what, mc.NodeAccessesLogical)
		}
	}
	view := openView(t, store, 2*store.NumPages()) // room for decoded nodes
	if err := view.ReadNodeSoA(id, &pageOrder, nil); err != nil {
		t.Fatal(err)
	}
	check(view, "empty memo")
	decoy.Reset(n - 1)
	view.PublishSweepOrder(id, 1, nil, &decoy)
	check(view, "a wrong-length node in slot 1")
	view.PublishSweepOrder(id, 3, nil, &pageOrder)
	check(view, "a node in slot 3")

	perm := make([]uint16, n)
	for i := range perm {
		perm[i] = uint16(i)
	}
	noRoom := openView(t, store, 1)
	noRoom.PublishSweepOrder(id, 0, perm, &pageOrder)
	check(noRoom, "a permutation")
}
