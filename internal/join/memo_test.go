package join

import (
	"math/rand"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
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
		it, err := AMIDJ(l, r, o)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		var out []Result
		for len(out) < 400 {
			res, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, res)
		}
		return out, it.Err()
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

// TestSweepOrderMemoColdWarmIdentity: the same query on one fresh tree
// pair twice — first filling the sweep-order memo, then reading it —
// and once more on a second fresh pair returns the same pairs in the
// same order with the same deterministic counters. The memo changes
// where node order comes from, never what it is.
func TestSweepOrderMemoColdWarmIdentity(t *testing.T) {
	l, r := memoTestData()
	for name, q := range memoQueries {
		left, right := buildTree(t, l, 8), buildTree(t, r, 8)
		cold, coldC := runCounted(t, q, left, right)
		if len(cold) == 0 {
			t.Fatalf("%s: no results; the query exercises nothing", name)
		}
		warm, warmC := runCounted(t, q, left, right)
		sameRun(t, name+" warm rerun", warm, cold, warmC, coldC)
		fresh, freshC := runCounted(t, q, buildTree(t, l, 8), buildTree(t, r, 8))
		sameRun(t, name+" second fresh index", fresh, cold, freshC, coldC)

		// The rerun must have had something to hit.
		var soa rtree.NodeSoA
		hits := 0
		for slot := 0; slot < rtree.SweepSlots; slot++ {
			if ordered, err := left.ReadNodeSoAOrdered(left.Root(), slot, &soa, nil); err != nil {
				t.Fatal(err)
			} else if ordered && soa.Len() > 1 {
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("%s: the left root has no memoized order after two runs", name)
		}
	}
}

// TestSweepOrderMemoCorruptLengthFallsBack plants a wrong-length
// permutation in every slot of every page of both trees. Each
// expansion must distrust it, sort afresh and still match the oracle —
// with the counters of an untouched index, since the page fetches are
// the same.
func TestSweepOrderMemoCorruptLengthFallsBack(t *testing.T) {
	l, r := memoTestData()
	for name, q := range memoQueries {
		want, wantC := runCounted(t, q, buildTree(t, l, 8), buildTree(t, r, 8))
		left, right := buildTree(t, l, 8), buildTree(t, r, 8)
		for _, tr := range []*rtree.Tree{left, right} {
			for id := 0; id <= tr.NumNodes(); id++ {
				for slot := 0; slot < rtree.SweepSlots; slot++ {
					tr.PublishSweepOrder(storage.PageID(id), slot, []uint16{0})
				}
			}
		}
		got, gotC := runCounted(t, q, left, right)
		sameRun(t, name+" over planted permutations", got, want, gotC, wantC)
		if name == "AM-KDJ" || name == "B-KDJ" {
			checkAgainstBrute(t, name+" over planted permutations", got, l, r, 150)
		}
	}
}

// TestExpansionOrderAllocs pins the memo's allocation contract at the
// one place node order is established: an expansion of two memoized
// nodes allocates nothing, and one that misses on both allocates only
// the two permutations it publishes (a header and an index array each).
func TestExpansionOrderAllocs(t *testing.T) {
	l, r := memoTestData()
	c, err := newContext(buildTree(t, l, 64), buildTree(t, r, 64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	root, plan := c.rootPair(), sweep.Plan{Axis: 1, Dir: sweep.Backward}
	expand := func() {
		if _, err := c.ex.expansionWithPlan(root, plan); err != nil {
			t.Fatal(err)
		}
	}
	expand() // size the SoA buffers and the sorter's index column
	if avg := testing.AllocsPerRun(200, expand); avg != 0 {
		t.Errorf("warm-memo expansion allocates %v, want 0", avg)
	}
	forget := func() {
		for _, tr := range []*rtree.Tree{c.left, c.right} {
			// A wrong-length order is distrusted, so the next read misses.
			tr.PublishSweepOrder(tr.Root(), plan.Slot(), nil)
		}
	}
	perForget := testing.AllocsPerRun(200, forget)
	if avg := testing.AllocsPerRun(200, func() { forget(); expand() }) - perForget; avg > 4 {
		t.Errorf("cold-memo expansion allocates %v beyond the test's own stores, want at most the 2 published permutations (4)", avg)
	}
}
