package join

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/memotest"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/sweep"
)

// memoQueries are the plane-sweep engines of the memo identity tests,
// each returning its full result sequence.
var memoQueries = map[string]func(l, r *rtree.Tree, o Options) ([]Result, error){
	"AM-KDJ": func(l, r *rtree.Tree, o Options) ([]Result, error) { return AMKDJ(l, r, 150, o) },
	"B-KDJ":  func(l, r *rtree.Tree, o Options) ([]Result, error) { return BKDJ(l, r, 150, o) },
	"AM-IDJ": func(l, r *rtree.Tree, o Options) ([]Result, error) {
		return drained(func() (*Iterator, error) { return AMIDJ(l, r, o) }, 400)
	},
	"WITHIN": func(l, r *rtree.Tree, o Options) ([]Result, error) {
		var out []Result
		err := WithinJoin(l, r, 12, o, func(res Result) bool {
			out = append(out, res)
			return true
		})
		return out, err
	},
}

// runCounted runs q from cold buffer pools and returns its results with
// the deterministic counters (everything but wall time).
func runCounted(t *testing.T, q func(l, r *rtree.Tree, o Options) ([]Result, error), left, right *rtree.Tree) ([]Result, metrics.Collector) {
	t.Helper()
	for _, tr := range []*rtree.Tree{left, right} {
		if err := tr.Pool().Invalidate(); err != nil {
			t.Fatal(err)
		}
	}
	var mc, counters metrics.Collector
	got, err := q(left, right, Options{Metrics: &mc})
	if err != nil {
		t.Fatal(err)
	}
	counters.Add(&mc)
	counters.WallTime = 0
	return got, counters
}

func sameRun(t *testing.T, what string, got, want []Result, gotC, wantC metrics.Collector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
	if gotC != wantC {
		t.Fatalf("%s: counters diverge:\n got  %+v\n want %+v", what, gotC, wantC)
	}
}

func memoTestData() (l, r []rtree.Item) {
	rng := rand.New(rand.NewSource(1213))
	w := geom.NewRect(0, 0, 1000, 1000)
	return datagen.GaussianClusters(rng.Int63(), 900, 5, w, 60, 8), datagen.Uniform(rng.Int63(), 700, w, 10)
}

// reopened returns a fresh view of tr's pages — cold pool, empty memo —
// through a pool of the tree's pages plus spare pages (minus, when
// spare is negative). The tree has room for decoded nodes exactly when
// spare is positive.
func reopened(t testing.TB, tr *rtree.Tree, spare int) *rtree.Tree {
	t.Helper()
	store := tr.Pool().Store()
	v, err := rtree.Open(store, (store.NumPages()+spare)*store.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// poolRegimes are the pool sizes, in pages relative to the tree, the
// memo tests run under: too small for the tree (permutations only, and
// evictions), exactly the tree (permutations only), room for a few
// decoded nodes (both forms in one table), room for all of them.
var poolRegimes = []struct {
	name  string
	spare int
}{
	{"pool one page short", -1},
	{"pool exactly the tree", 0},
	{"pool with three spare pages", 3},
	{"pool with room for every node", 1 << 12},
}

// TestSweepOrderMemoColdWarmIdentity: the same query on one fresh tree
// pair twice — first filling the sweep-order memo, then reading it —
// and once more on a second fresh pair returns the same pairs in the
// same order with the same deterministic counters, whether the pools
// leave room for decoded nodes or not. The memo changes where a sorted
// node comes from, never what it is. Pools that hold the whole tree
// also agree with each other, whatever their room.
func TestSweepOrderMemoColdWarmIdentity(t *testing.T) {
	l, r := memoTestData()
	lbase, rbase := buildTree(t, l, 8), buildTree(t, r, 8)
	for name, q := range memoQueries {
		var holding []Result
		var holdingC metrics.Collector
		for _, regime := range poolRegimes {
			what := name + ", " + regime.name
			left, right := reopened(t, lbase, regime.spare), reopened(t, rbase, regime.spare)
			cold, coldC := runCounted(t, q, left, right)
			if len(cold) == 0 {
				t.Fatalf("%s: no results; the query exercises nothing", what)
			}
			warm, warmC := runCounted(t, q, left, right)
			sameRun(t, what+": warm rerun", warm, cold, warmC, coldC)
			fresh, freshC := runCounted(t, q, reopened(t, lbase, regime.spare), reopened(t, rbase, regime.spare))
			sameRun(t, what+": second fresh index", fresh, cold, freshC, coldC)
			if regime.spare >= 0 {
				if holding != nil {
					sameRun(t, what+": against the smaller pool that held the tree", cold, holding, coldC, holdingC)
				}
				holding, holdingC = cold, coldC
			}

			// The rerun must have had something to hit, in the form the
			// regime allows.
			var soa rtree.NodeSoA
			hits, shared := 0, 0
			for slot := 0; slot < rtree.SweepSlots; slot++ {
				pin, err := left.PinNode(left.Root(), left.Height()-1, nil)
				if err != nil {
					t.Fatal(err)
				}
				n, ordered, err := pin.Ordered(slot, &soa)
				pin.Release()
				if err != nil {
					t.Fatal(err)
				}
				if ordered && n.Len() > 1 {
					hits++
				}
				if n != &soa {
					shared++
				}
			}
			if hits == 0 || (regime.spare <= 0 && shared > 0) || (regime.spare > 0 && shared != hits) {
				t.Fatalf("%s: after two runs the left root has %d memoized orders, %d of them decoded nodes", what, hits, shared)
			}
		}
	}
}

// TestSweepOrderMemoCorruptLengthFallsBack plants a wrong-length cell —
// a permutation where the pool leaves no room, a decoded node where it
// does — in every slot of every page of both trees. Each expansion must
// distrust it, sort afresh and still match the oracle — with the
// counters of an untouched index, since the page fetches are the same —
// and republish: afterwards the cells the query touched hold the right
// node again.
func TestSweepOrderMemoCorruptLengthFallsBack(t *testing.T) {
	l, r := memoTestData()
	lbase, rbase := buildTree(t, l, 8), buildTree(t, r, 8)
	decoy := &rtree.NodeSoA{}
	decoy.SetSingle(geom.Rect{}, 0)
	for name, q := range memoQueries {
		for _, spare := range []int{0, 1 << 12} {
			want, wantC := runCounted(t, q, reopened(t, lbase, spare), reopened(t, rbase, spare))
			left, right := reopened(t, lbase, spare), reopened(t, rbase, spare)
			for _, tr := range []*rtree.Tree{left, right} {
				for id := 0; id <= tr.NumNodes(); id++ {
					for slot := 0; slot < rtree.SweepSlots; slot++ {
						tr.PublishSweepOrder(storage.PageID(id), slot, []uint16{0}, decoy)
					}
				}
				if planted := len(memotest.Read(t, tr).Nodes); planted != 0 {
					t.Fatalf("%s: %d planted cells are trusted", name, planted)
				}
			}
			got, gotC := runCounted(t, q, left, right)
			sameRun(t, name+" over planted cells", got, want, gotC, wantC)
			if name == "AM-KDJ" || name == "B-KDJ" {
				checkAgainstBrute(t, name+" over planted cells", got, l, r, 150)
			}
			if republished := len(memotest.Read(t, left).Nodes); (republished > 0) != (spare > 0) {
				t.Fatalf("%s, %d spare pages: %d decoded nodes republished", name, spare, republished)
			}
		}
	}
}

// sharedNodeBattery runs every algorithm over (left, right) in the
// shapes that revisit nodes: compensation after a hopeless eDmax,
// AM-IDJ growing its band in small stages, a refiner re-queueing
// results, and left joined with itself.
func sharedNodeBattery(t *testing.T, left, right *rtree.Tree) {
	t.Helper()
	centers := func(_, _ int64, a, b geom.Rect) float64 { return a.CenterDist(b) }
	var mc metrics.Collector
	drain := func(next func() (Result, bool), n int) {
		for i := 0; i < n; i++ {
			if _, ok := next(); !ok {
				return
			}
		}
	}
	for _, run := range []func() error{
		func() error { _, err := HSKDJ(left, right, 150, Options{}); return err },
		func() error { _, err := BKDJ(left, right, 150, Options{}); return err },
		func() error { _, err := AMKDJ(left, right, 150, Options{}); return err },
		func() error {
			_, err := AMKDJ(left, right, 150, Options{EDmax: math.SmallestNonzeroFloat64, Metrics: &mc})
			return err
		},
		func() error { _, err := AMKDJ(left, right, 150, Options{Refiner: centers}); return err },
		func() error { _, err := AMKDJ(left, left, 150, Options{SelfJoin: true}); return err },
		func() error { _, err := SJSort(left, right, 150, 40, Options{}); return err },
		func() error {
			it, err := HSIDJ(left, right, Options{})
			if err != nil {
				return err
			}
			defer it.Close()
			drain(it.Next, 300)
			return it.Err()
		},
		func() error {
			it, err := AMIDJ(left, right, Options{BatchK: 25, Refiner: centers})
			if err != nil {
				return err
			}
			defer it.Close()
			drain(it.Next, 400)
			return it.Err()
		},
		func() error {
			return WithinJoin(left, right, 12, Options{}, func(Result) bool { return true })
		},
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	if mc.CompensationStages == 0 {
		t.Fatal("the battery ran no compensation stage")
	}
}

// TestSharedNodesIdentityAndImmutability: with room in the pools, every
// node the memo hands out after a battery of all the algorithms equals
// what an expansion used to build for itself — page decode, tracked
// sort, child levels stamped — bit for bit, refs included, under all
// four plans, with few and with hundreds of entries per node
// (rtree's TestOrderedDecodeMatchesDecodeAndSort adds NaN, infinite and
// duplicate keys); and a second battery over the
// same trees changes neither which node a cell holds nor one bit of
// it: the engines only ever read through a run's sides.
func TestSharedNodesIdentityAndImmutability(t *testing.T) {
	l, r := memoTestData()
	slots := map[int]bool{}
	for _, fanout := range []int{8, 300} { // a few entries per node, and more than a byte indexes
		build := func(items []rtree.Item) *rtree.Tree {
			b, err := rtree.NewBuilder(fanout)
			if err != nil {
				t.Fatal(err)
			}
			b.BulkLoad(items)
			tree, err := b.Pack(storage.NewMemStore(16384), 1<<24)
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
		left, right := build(l), build(r)
		sharedNodeBattery(t, left, right)

		before := map[*rtree.Tree]memotest.Survey{}
		var sorter sweep.SoASorter
		var want rtree.NodeSoA
		for _, tr := range []*rtree.Tree{left, right} {
			before[tr] = memotest.Read(t, tr)
			for cell, shared := range before[tr].Nodes {
				slots[cell.Slot] = true
				if err := tr.ReadNodeSoA(cell.ID, &want, nil); err != nil {
					t.Fatal(err)
				}
				sorter.SortTracked(&want, sweep.SlotPlan(cell.Slot))
				stampChildLevels(&want)
				if shared.Digest != memotest.Digest(&want) {
					t.Fatalf("fanout %d, page %d slot %d: the shared node is not decode + sort + stamp", fanout, cell.ID, cell.Slot)
				}
			}
		}

		sharedNodeBattery(t, left, right)
		for _, tr := range []*rtree.Tree{left, right} {
			memotest.Unchanged(t, fmt.Sprintf("fanout %d, second battery", fanout), before[tr], memotest.Read(t, tr))
		}
	}
	if len(slots) != rtree.SweepSlots {
		t.Fatalf("the batteries published nodes under slots %v only", slots)
	}
}

// TestResizeBufferRederivesRoom is Figure 13's use of a tree: shrink
// the pools below the trees and rerun — results and every counter equal
// those of fresh trees opened at that size and no decoded node is left —
// then grow them back and the nodes refill.
func TestResizeBufferRederivesRoom(t *testing.T) {
	l, r := memoTestData()
	lbase, rbase := buildTree(t, l, 8), buildTree(t, r, 8)
	pageSize := lbase.Pool().PageSize()
	for name, q := range memoQueries {
		left, right := reopened(t, lbase, 1<<12), reopened(t, rbase, 1<<12)
		big, bigC := runCounted(t, q, left, right)
		filled := len(memotest.Read(t, left).Nodes)
		if filled == 0 {
			t.Fatalf("%s: roomy pools published no decoded node", name)
		}

		small := 6 * pageSize
		left.ResizeBuffer(small)
		right.ResizeBuffer(small)
		lfresh, err := rtree.Open(lbase.Pool().Store(), small)
		if err != nil {
			t.Fatal(err)
		}
		rfresh, err := rtree.Open(rbase.Pool().Store(), small)
		if err != nil {
			t.Fatal(err)
		}
		want, wantC := runCounted(t, q, lfresh, rfresh)
		got, gotC := runCounted(t, q, left, right)
		sameRun(t, name+" after shrinking the pools", got, want, gotC, wantC)
		if gotC.NodeAccessesPhysical == bigC.NodeAccessesPhysical {
			t.Fatalf("%s: six-page pools read as few pages as pools holding the trees; the shrink tested nothing", name)
		}
		if kept := len(memotest.Read(t, left).Nodes) + len(memotest.Read(t, right).Nodes); kept != 0 {
			t.Fatalf("%s: %d decoded nodes survive pools that do not hold the trees", name, kept)
		}

		left.ResizeBuffer((1 << 12) * pageSize)
		right.ResizeBuffer((1 << 12) * pageSize)
		again, againC := runCounted(t, q, left, right)
		sameRun(t, name+" after growing the pools back", again, big, againC, bigC)
		if refilled := len(memotest.Read(t, left).Nodes); refilled != filled {
			t.Fatalf("%s: %d decoded nodes after growing back, %d before shrinking", name, refilled, filled)
		}
	}
}

// TestExpansionOrderAllocs pins the memo's allocation contract at the
// one place node order is established: an expansion of two memoized
// nodes allocates nothing, whichever form the memo holds them in, and
// one that misses on both allocates only what it publishes — two
// permutations (a cell and an index array each) or two nodes (cell,
// header, coordinate block and refs each).
func TestExpansionOrderAllocs(t *testing.T) {
	l, r := memoTestData()
	lbase, rbase := buildTree(t, l, 64), buildTree(t, r, 64)
	decoy := &rtree.NodeSoA{}
	decoy.SetSingle(geom.Rect{}, 0)
	for _, tc := range []struct {
		name    string
		spare   int
		publish float64
	}{
		{"permutations", 0, 2},
		{"decoded nodes", 1 << 12, 4},
	} {
		c, err := newContext(reopened(t, lbase, tc.spare), reopened(t, rbase, tc.spare), Options{})
		if err != nil {
			t.Fatal(err)
		}
		root, plan := c.rootPair(), sweep.Plan{Axis: 1, Dir: sweep.Backward}
		expand := func() {
			if _, err := c.ex.expansionWithPlan(&root, plan, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
		}
		expand() // size the SoA buffers and the sorter's index column
		if avg := testing.AllocsPerRun(200, expand); avg != 0 {
			t.Errorf("%s: warm-memo expansion allocates %v, want 0", tc.name, avg)
		}
		if shared := c.ex.run.left.n != &c.ex.soaL; shared != (tc.spare > 0) {
			t.Errorf("%s: the run sweeps a shared node: %v", tc.name, shared)
		}
		forget := func() {
			for _, tr := range []*rtree.Tree{c.left, c.right} {
				// A wrong-length cell is distrusted, so the next read misses.
				tr.PublishSweepOrder(tr.Root(), plan.Slot(), []uint16{0}, decoy)
			}
		}
		// forget stores two cells of the form expand then replaces.
		if avg := testing.AllocsPerRun(200, func() { forget(); expand() }) / 2; avg > 2*tc.publish {
			t.Errorf("%s: cold-memo expansion allocates %v, want at most the 2 published cells (%v)", tc.name, avg, 2*tc.publish)
		}
	}
}
