package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/metrics"
	"distjoin/internal/storage"
)

func randItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		x := rng.Float64() * 1000
		y := rng.Float64() * 1000
		w := rng.Float64() * 5
		h := rng.Float64() * 5
		items[i] = Item{Rect: geom.NewRect(x, y, x+w, y+h), Obj: int64(i)}
	}
	return items
}

func TestNewBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(3); err == nil {
		t.Fatal("maxEntries < 4 must be rejected")
	}
	b, err := NewBuilder(10)
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxEntries() != 10 || b.MinEntries() != 4 {
		t.Fatalf("fanout = %d/%d, want 10/4", b.MaxEntries(), b.MinEntries())
	}
	if b.Size() != 0 || b.Height() != 1 {
		t.Fatalf("empty tree size/height = %d/%d", b.Size(), b.Height())
	}
}

func TestInsertInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b, _ := NewBuilder(8)
	items := randItems(rng, 500)
	for i, it := range items {
		b.Insert(it.Rect, it.Obj)
		if i%50 == 0 {
			if err := b.checkInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 500 {
		t.Fatalf("Size = %d, want 500", b.Size())
	}
	if b.Height() < 3 {
		t.Fatalf("500 items with fanout 8 should build height >= 3, got %d", b.Height())
	}
}

func TestInsertPanicsOnInvalidRect(t *testing.T) {
	b, _ := NewBuilder(8)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid rect must panic")
		}
	}()
	b.Insert(geom.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}, 1)
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randItems(rng, 400)
	b, _ := NewBuilder(8)
	for _, it := range items {
		b.Insert(it.Rect, it.Obj)
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.NewRect(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		want := map[int64]bool{}
		for _, it := range items {
			if it.Rect.Intersects(q) {
				want[it.Obj] = true
			}
		}
		got := map[int64]bool{}
		b.Search(q, func(it Item) bool {
			got[it.Obj] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for obj := range want {
			if !got[obj] {
				t.Fatalf("trial %d: missing object %d", trial, obj)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	b, _ := NewBuilder(8)
	for i := 0; i < 100; i++ {
		b.Insert(geom.NewRect(0, 0, 1, 1), int64(i))
	}
	count := 0
	b.Search(geom.NewRect(0, 0, 1, 1), func(Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, 300)
	b, _ := NewBuilder(8)
	for _, it := range items {
		b.Insert(it.Rect, it.Obj)
	}
	// Delete in random order, validating invariants along the way.
	perm := rng.Perm(len(items))
	for i, pi := range perm {
		it := items[pi]
		if !b.Delete(it.Rect, it.Obj) {
			t.Fatalf("delete %d: object %d not found", i, it.Obj)
		}
		if i%37 == 0 {
			if err := b.checkInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if b.Size() != 0 {
		t.Fatalf("Size = %d after deleting everything", b.Size())
	}
	if b.Height() != 1 {
		t.Fatalf("Height = %d after deleting everything, want 1", b.Height())
	}
	if b.Delete(items[0].Rect, items[0].Obj) {
		t.Fatal("delete on empty tree must return false")
	}
}

func TestDeleteNonexistent(t *testing.T) {
	b, _ := NewBuilder(8)
	b.Insert(geom.NewRect(0, 0, 1, 1), 1)
	if b.Delete(geom.NewRect(5, 5, 6, 6), 1) {
		t.Fatal("wrong rect must not delete")
	}
	if b.Delete(geom.NewRect(0, 0, 1, 1), 2) {
		t.Fatal("wrong obj must not delete")
	}
	if b.Size() != 1 {
		t.Fatalf("Size = %d, want 1", b.Size())
	}
}

func TestMixedInsertDeleteProperty(t *testing.T) {
	const seed = 4
	rng := rand.New(rand.NewSource(seed))
	b, _ := NewBuilder(6)
	// ids lists the live objects; rects[id] is each one's rectangle.
	// The victim of a delete is drawn from ids, so a failure replays.
	var ids []int64
	var rects []geom.Rect
	for op := 0; op < 3000; op++ {
		if rng.Intn(3) != 0 || len(ids) == 0 {
			x, y := rng.Float64()*100, rng.Float64()*100
			r := geom.NewRect(x, y, x+rng.Float64(), y+rng.Float64())
			id := int64(len(rects))
			b.Insert(r, id)
			rects = append(rects, r)
			ids = append(ids, id)
		} else {
			i := rng.Intn(len(ids))
			obj := ids[i]
			if !b.Delete(rects[obj], obj) {
				t.Fatalf("seed %d op %d: failed to delete live object %d", seed, op, obj)
			}
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if op%211 == 0 {
			if err := b.checkInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if b.Size() != len(ids) {
				t.Fatalf("seed %d op %d: size %d != live %d", seed, op, b.Size(), len(ids))
			}
		}
	}
	// Everything still findable, and nothing deleted.
	found := map[int64]bool{}
	b.Search(b.Bounds(), func(it Item) bool {
		found[it.Obj] = true
		return true
	})
	for _, id := range ids {
		if !found[id] {
			t.Fatalf("seed %d: live object %d not found", seed, id)
		}
	}
	if len(found) != len(ids) {
		t.Fatalf("seed %d: found %d, want %d", seed, len(found), len(ids))
	}
}

func TestBulkLoadInvariantsAndContent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1000, 5000} {
		items := randItems(rng, n)
		b, _ := NewBuilder(16)
		b.BulkLoad(items)
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if b.Size() != n {
			t.Fatalf("n=%d: Size = %d", n, b.Size())
		}
		got := b.Items()
		if len(got) != n {
			t.Fatalf("n=%d: Items returned %d", n, len(got))
		}
		objs := map[int64]bool{}
		for _, it := range got {
			objs[it.Obj] = true
		}
		if len(objs) != n {
			t.Fatalf("n=%d: duplicate or missing objects", n)
		}
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := randItems(rng, 800)
	b, _ := NewBuilder(12)
	b.BulkLoad(items)
	// Tree remains mutable after bulk load.
	b.Insert(geom.NewRect(2000, 2000, 2001, 2001), 9999)
	if !b.Delete(items[13].Rect, items[13].Obj) {
		t.Fatal("delete after bulk load failed")
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 800 {
		t.Fatalf("Size = %d, want 800", b.Size())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	page := make([]byte, 512)
	entries := []encEntry{
		{rect: geom.NewRect(1, 2, 3, 4), ref: 42},
		{rect: geom.NewRect(-5, -6, -1, -2), ref: math.MaxUint64},
		{rect: geom.NewRect(0, 0, 0, 0), ref: 0},
	}
	if err := encodeNode(page, 3, entries); err != nil {
		t.Fatal(err)
	}
	var n NodeSoA
	if err := decodeNodeSoA(page, &n); err != nil {
		t.Fatal(err)
	}
	if n.Level != 3 || n.Len() != 3 {
		t.Fatalf("decoded level/count = %d/%d", n.Level, n.Len())
	}
	for i, e := range entries {
		if n.Rect(i) != e.rect || n.Refs[i] != e.ref {
			t.Fatalf("entry %d mismatch: %v %d vs %+v", i, n.Rect(i), n.Refs[i], e)
		}
	}
	if n.IsLeaf() {
		t.Fatal("level 3 node must not be leaf")
	}
}

func TestEncodeNodeOverflow(t *testing.T) {
	page := make([]byte, 128) // capacity (128-8)/40 = 3
	entries := make([]encEntry, 4)
	if err := encodeNode(page, 0, entries); err == nil {
		t.Fatal("encoding beyond capacity must fail")
	}
}

func TestDecodeCorruptPage(t *testing.T) {
	var n NodeSoA
	if err := decodeNodeSoA(make([]byte, 4), &n); err == nil {
		t.Fatal("short page must fail")
	}
	page := make([]byte, 128)
	page[2] = 200 // count 200 > capacity 3
	if err := decodeNodeSoA(page, &n); err == nil {
		t.Fatal("corrupt count must fail")
	}
}

func TestPageCapacity4K(t *testing.T) {
	// (4096-8)/40 = 102, the fanout quoted for the paper's settings.
	if got := PageCapacity(4096); got != 102 {
		t.Fatalf("PageCapacity(4096) = %d, want 102", got)
	}
}

func packTestTree(t *testing.T, items []Item, maxEntries, bufferBytes int) *Tree {
	t.Helper()
	b, err := NewBuilder(maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	b.BulkLoad(items)
	store := storage.NewMemStore(4096)
	tree, err := b.Pack(store, bufferBytes)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestPackAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randItems(rng, 2000)
	tree := packTestTree(t, items, 64, 1<<20)
	if tree.Size() != 2000 {
		t.Fatalf("Size = %d", tree.Size())
	}
	if tree.Height() < 2 {
		t.Fatalf("Height = %d", tree.Height())
	}
	for trial := 0; trial < 30; trial++ {
		q := geom.NewRect(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		want := 0
		for _, it := range items {
			if it.Rect.Intersects(q) {
				want++
			}
		}
		got := 0
		if err := tree.Search(q, nil, func(Item) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: got %d, want %d", trial, got, want)
		}
	}
}

func TestPackRequiresEmptyStore(t *testing.T) {
	store := storage.NewMemStore(4096)
	if _, err := store.Alloc(); err != nil {
		t.Fatal(err)
	}
	b, _ := NewBuilder(8)
	if _, err := b.Pack(store, 1<<16); err == nil {
		t.Fatal("Pack on non-empty store must fail")
	}
}

func TestPackFanoutExceedsPage(t *testing.T) {
	b, _ := NewBuilder(500) // 500 > PageCapacity(4096)=102
	store := storage.NewMemStore(4096)
	if _, err := b.Pack(store, 1<<16); err == nil {
		t.Fatal("Pack with oversized fanout must fail")
	}
}

func TestOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := randItems(rng, 500)
	b, _ := NewBuilder(32)
	b.BulkLoad(items)
	store := storage.NewMemStore(4096)
	orig, err := b.Pack(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if re.Size() != orig.Size() || re.Height() != orig.Height() ||
		re.NumNodes() != orig.NumNodes() || re.Root() != orig.Root() ||
		re.Bounds() != orig.Bounds() {
		t.Fatalf("reopened metadata mismatch: %+v vs %+v", re, orig)
	}
	count := 0
	if err := re.Search(re.Bounds(), nil, func(Item) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Fatalf("reopened search found %d, want 500", count)
	}
}

func TestOpenRejectsNonRTree(t *testing.T) {
	store := storage.NewMemStore(4096)
	if _, err := Open(store, 1<<16); err != ErrNotRTree {
		t.Fatalf("empty store: %v", err)
	}
	if _, err := store.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(store, 1<<16); err != ErrNotRTree {
		t.Fatalf("garbage store: %v", err)
	}
}

// nodeMBR is the union of n's entry rectangles.
func nodeMBR(n *NodeSoA) geom.Rect {
	if n.Len() == 0 {
		return geom.Rect{}
	}
	r := n.Rect(0)
	for i := 1; i < n.Len(); i++ {
		r = r.Union(n.Rect(i))
	}
	return r
}

// Lemma 1 of the paper: for every parent entry and each entry of the
// child node it references, dist(query, parent) <= dist(query, child)
// is implied by containment; verify containment structurally.
func TestLemma1Containment(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randItems(rng, 3000)
	tree := packTestTree(t, items, 32, 1<<22)
	err := tree.Walk(func(id storage.PageID, n *NodeSoA) error {
		if n.IsLeaf() {
			return nil
		}
		var child NodeSoA
		for i := 0; i < n.Len(); i++ {
			if err := tree.ReadNodeSoA(storage.PageID(n.Refs[i]), &child, nil); err != nil {
				return err
			}
			if got := nodeMBR(&child); n.Rect(i) != got {
				t.Fatalf("parent entry rect %v != child MBR %v", n.Rect(i), got)
			}
			for c := 0; c < child.Len(); c++ {
				if !n.Rect(i).Contains(child.Rect(c)) {
					t.Fatalf("child entry %v escapes parent %v", child.Rect(c), n.Rect(i))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The distance consequence, sampled: for random probes r,
	// minDist(r, parent) <= minDist(r, any child entry).
	probe := geom.NewRect(-50, -50, -40, -40)
	err = tree.Walk(func(id storage.PageID, n *NodeSoA) error {
		if n.IsLeaf() {
			return nil
		}
		var child NodeSoA
		for i := 0; i < n.Len(); i++ {
			pd := probe.MinDist(n.Rect(i))
			if err := tree.ReadNodeSoA(storage.PageID(n.Refs[i]), &child, nil); err != nil {
				return err
			}
			for c := 0; c < child.Len(); c++ {
				if cd := probe.MinDist(child.Rect(c)); cd < pd-1e-9 {
					t.Fatalf("Lemma 1 violated: parent %g > child %g", pd, cd)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeAccessCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	items := randItems(rng, 1000)
	tree := packTestTree(t, items, 16, 4096) // one-frame buffer
	mc := &metrics.Collector{}
	if err := tree.Search(tree.Bounds(), mc, func(Item) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if mc.NodeAccessesLogical == 0 {
		t.Fatal("search must record logical node accesses")
	}
	if mc.NodeAccessesLogical != int64(tree.NumNodes()) {
		t.Fatalf("full scan: logical accesses %d != nodes %d",
			mc.NodeAccessesLogical, tree.NumNodes())
	}
	if mc.NodeAccessesPhysical == 0 {
		t.Fatal("one-frame buffer must record physical misses")
	}
	if mc.ModeledIOTime == 0 {
		t.Fatal("physical reads must charge modeled I/O time")
	}

	// A large buffer, pre-warmed, yields zero physical accesses.
	tree2 := packTestTree(t, items, 16, 1<<22)
	if err := tree2.Search(tree2.Bounds(), nil, func(Item) bool { return true }); err != nil {
		t.Fatal(err)
	}
	mc2 := &metrics.Collector{}
	if err := tree2.Search(tree2.Bounds(), mc2, func(Item) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if mc2.NodeAccessesPhysical != 0 {
		t.Fatalf("warm full buffer recorded %d physical accesses", mc2.NodeAccessesPhysical)
	}
}

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randItems(rng, 700)
	tree := packTestTree(t, items, 16, 1<<22)
	for trial := 0; trial < 20; trial++ {
		q := geom.RectFromPoint(geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
		k := 1 + rng.Intn(20)
		got, err := tree.NearestNeighbors(q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		dists := make([]float64, len(items))
		for i, it := range items {
			dists[i] = q.MinDist(it.Rect)
		}
		sort.Float64s(dists)
		if len(got) != k {
			t.Fatalf("got %d results, want %d", len(got), k)
		}
		for i := range got {
			if math.Abs(got[i].Dist-dists[i]) > 1e-9 {
				t.Fatalf("trial %d: NN %d dist %g, want %g", trial, i, got[i].Dist, dists[i])
			}
			if i > 0 && got[i].Dist < got[i-1].Dist {
				t.Fatal("NN results must be nondecreasing")
			}
		}
	}
}

func TestNearestNeighborsEdgeCases(t *testing.T) {
	tree := packTestTree(t, nil, 8, 1<<16)
	if got, err := tree.NearestNeighbors(geom.Rect{}, 5, nil); err != nil || got != nil {
		t.Fatalf("empty tree: %v, %v", got, err)
	}
	tree2 := packTestTree(t, []Item{{Rect: geom.NewRect(0, 0, 1, 1), Obj: 1}}, 8, 1<<16)
	if got, err := tree2.NearestNeighbors(geom.Rect{}, 0, nil); err != nil || got != nil {
		t.Fatalf("k=0: %v, %v", got, err)
	}
	got, err := tree2.NearestNeighbors(geom.RectFromPoint(geom.Point{X: 5, Y: 1}), 10, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("k>size: %v, %v", got, err)
	}
	if got[0].Dist != 4 {
		t.Fatalf("dist = %g, want 4", got[0].Dist)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bl, _ := NewBuilder(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		bl.Insert(geom.NewRect(x, y, x+1, y+1), int64(i))
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := randItems(rng, 10000)
	bl, _ := NewBuilder(102)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.BulkLoad(items)
	}
}

func BenchmarkPackedSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := randItems(rng, 10000)
	bl, _ := NewBuilder(102)
	bl.BulkLoad(items)
	store := storage.NewMemStore(4096)
	tree, err := bl.Pack(store, 1<<22)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.NewRect(rng.Float64()*900, rng.Float64()*900, 0, 0)
		q.MaxX, q.MaxY = q.MinX+100, q.MinY+100
		tree.Search(q, nil, func(Item) bool { return true })
	}
}

func TestSplitPoliciesInvariantsAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := randItems(rng, 600)
	for _, p := range []SplitPolicy{SplitRStar, SplitQuadratic, SplitLinear} {
		b, _ := NewBuilder(8)
		b.SetSplitPolicy(p)
		if b.SplitPolicy() != p {
			t.Fatalf("%v: policy not set", p)
		}
		for _, it := range items {
			b.Insert(it.Rect, it.Obj)
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		// Search correctness.
		q := geom.NewRect(100, 100, 400, 400)
		want := map[int64]bool{}
		for _, it := range items {
			if it.Rect.Intersects(q) {
				want[it.Obj] = true
			}
		}
		got := 0
		b.Search(q, func(it Item) bool {
			if !want[it.Obj] {
				t.Fatalf("%v: spurious result %d", p, it.Obj)
			}
			got++
			return true
		})
		if got != len(want) {
			t.Fatalf("%v: found %d of %d", p, got, len(want))
		}
		// Deletion still works under every policy.
		for i := 0; i < 100; i++ {
			if !b.Delete(items[i].Rect, items[i].Obj) {
				t.Fatalf("%v: delete %d failed", p, i)
			}
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("%v after deletes: %v", p, err)
		}
	}
}

func TestSplitPolicyDegenerateIdenticalRects(t *testing.T) {
	for _, p := range []SplitPolicy{SplitQuadratic, SplitLinear} {
		b, _ := NewBuilder(4)
		b.SetSplitPolicy(p)
		for i := 0; i < 100; i++ {
			b.Insert(geom.NewRect(5, 5, 6, 6), int64(i))
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		count := 0
		b.Search(geom.NewRect(5, 5, 6, 6), func(Item) bool { count++; return true })
		if count != 100 {
			t.Fatalf("%v: found %d of 100", p, count)
		}
	}
}

// R*-splits produce measurably better trees than Guttman's linear
// split on clustered data: less total internal-node overlap.
func TestRStarBeatsLinearOnOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Clustered items stress split quality.
	items := make([]Item, 2000)
	for i := range items {
		cx := float64(rng.Intn(5)) * 200
		cy := float64(rng.Intn(5)) * 200
		x := cx + rng.NormFloat64()*20
		y := cy + rng.NormFloat64()*20
		items[i] = Item{Rect: geom.NewRect(x, y, x+2, y+2), Obj: int64(i)}
	}
	overlap := func(p SplitPolicy) float64 {
		b, _ := NewBuilder(16)
		b.SetSplitPolicy(p)
		for _, it := range items {
			b.Insert(it.Rect, it.Obj)
		}
		return b.totalLeafOverlap()
	}
	rstar := overlap(SplitRStar)
	linear := overlap(SplitLinear)
	if rstar >= linear {
		t.Fatalf("R* leaf overlap %g not below linear %g", rstar, linear)
	}
}

func TestSplitPolicyString(t *testing.T) {
	if SplitRStar.String() != "rstar" || SplitQuadratic.String() != "quadratic" ||
		SplitLinear.String() != "linear" || SplitPolicy(9).String() == "" {
		t.Fatal("split policy names")
	}
}
