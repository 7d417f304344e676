package join

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/estimate"
	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// buildTree packs items into a paged R-tree with a generous buffer.
func buildTree(t testing.TB, items []rtree.Item, fanout int) *rtree.Tree {
	t.Helper()
	b, err := rtree.NewBuilder(fanout)
	if err != nil {
		t.Fatal(err)
	}
	b.BulkLoad(items)
	tree, err := b.Pack(storage.NewMemStore(4096), 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// checkAgainstBrute verifies that got matches the brute-force k
// nearest pairs as a distance multiset, and is in nondecreasing order.
func checkAgainstBrute(t *testing.T, name string, got []Result, left, right []rtree.Item, k int) {
	t.Helper()
	want := BruteForce(left, right, k)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", name, len(got), len(want))
	}
	for i := range got {
		if i > 0 && got[i].Dist < got[i-1].Dist {
			t.Fatalf("%s: result %d out of order: %g after %g", name, i, got[i].Dist, got[i-1].Dist)
		}
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("%s: result %d dist %.12g, want %.12g", name, i, got[i].Dist, want[i].Dist)
		}
		// The reported distance must match the reported rect pair.
		if d := got[i].LeftRect.MinDist(got[i].RightRect); math.Abs(d-got[i].Dist) > 1e-9 {
			t.Fatalf("%s: result %d dist %g inconsistent with rects (%g)", name, i, got[i].Dist, d)
		}
	}
}

// workloads for the correctness matrix.
func testWorkloads(rng *rand.Rand) map[string][2][]rtree.Item {
	w := geom.NewRect(0, 0, 1000, 1000)
	return map[string][2][]rtree.Item{
		"uniform": {
			datagen.Uniform(rng.Int63(), 300, w, 10),
			datagen.Uniform(rng.Int63(), 200, w, 10),
		},
		"clustered": {
			datagen.GaussianClusters(rng.Int63(), 300, 4, w, 40, 8),
			datagen.GaussianClusters(rng.Int63(), 250, 3, w, 60, 8),
		},
		"points": {
			datagen.Uniform(rng.Int63(), 250, w, 0),
			datagen.Uniform(rng.Int63(), 250, w, 0),
		},
		"disjoint-regions": {
			datagen.Uniform(rng.Int63(), 150, geom.NewRect(0, 0, 400, 400), 5),
			datagen.Uniform(rng.Int63(), 150, geom.NewRect(600, 600, 1000, 1000), 5),
		},
		"tiny": {
			datagen.Uniform(rng.Int63(), 3, w, 10),
			datagen.Uniform(rng.Int63(), 5, w, 10),
		},
		// Touching and near-identical MBRs piled on grid corners: heavy
		// distance ties. Fixed seeds, so the rows above keep their draws.
		"grid-straddle": {
			datagen.GridStraddle(9, 300, 3, w, 3),
			datagen.GridStraddle(10, 250, 3, w, 3),
		},
	}
}

func TestKDJAlgorithmsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for wname, sets := range testWorkloads(rng) {
		left := buildTree(t, sets[0], 8)
		right := buildTree(t, sets[1], 8)
		for _, k := range []int{1, 10, 57, 300, 100000} {
			algos := map[string]func() ([]Result, error){
				"HS-KDJ": func() ([]Result, error) { return HSKDJ(left, right, k, Options{}) },
				"B-KDJ":  func() ([]Result, error) { return BKDJ(left, right, k, Options{}) },
				"AM-KDJ": func() ([]Result, error) { return AMKDJ(left, right, k, Options{}) },
			}
			for aname, f := range algos {
				got, err := f()
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", wname, aname, k, err)
				}
				checkAgainstBrute(t, wname+"/"+aname, got, sets[0], sets[1], k)
			}
		}
	}
}

func TestKDJWithUnoptimizedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 300, w, 10)
	r := datagen.Uniform(rng.Int63(), 300, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	for _, a := range []Ablation{{FixedAxis: true, FixedDirection: true}, {FixedDirection: true}, {FixedAxis: true}} {
		got, err := BKDJ(left, right, 100, Options{Ablation: a})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBrute(t, "B-KDJ/unopt", got, l, r, 100)
	}
}

// DESIGN.md invariant: AM-KDJ returns correct results for ANY eDmax,
// including extreme under- and over-estimates — compensation guarantees
// no false dismissals.
func TestAMKDJAnyEDmax(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.GaussianClusters(rng.Int63(), 250, 3, w, 50, 10)
	r := datagen.Uniform(rng.Int63(), 250, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	k := 150
	want := BruteForce(l, r, k)
	realDmax := want[k-1].Dist
	for _, f := range []float64{1e-9, 0.01, 0.1, 0.5, 1, 2, 10, 1e6} {
		got, err := AMKDJ(left, right, k, Options{EDmax: realDmax * f})
		if err != nil {
			t.Fatalf("factor %g: %v", f, err)
		}
		checkAgainstBrute(t, "AM-KDJ", got, l, r, k)
	}
	// Also a literally tiny absolute estimate (forces full compensation).
	got, err := AMKDJ(left, right, k, Options{EDmax: math.SmallestNonzeroFloat64})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBrute(t, "AM-KDJ/min", got, l, r, k)
}

func TestAMKDJCompensationCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 400, w, 10)
	r := datagen.Uniform(rng.Int63(), 400, w, 10)
	left, right := buildTree(t, l, 16), buildTree(t, r, 16)
	k := 200
	real := BruteForce(l, r, k)[k-1].Dist

	// Overestimate: no compensation stage.
	mc := &metrics.Collector{}
	if _, err := AMKDJ(left, right, k, Options{EDmax: real * 4, Metrics: mc}); err != nil {
		t.Fatal(err)
	}
	if mc.CompensationStages != 0 {
		t.Fatalf("overestimate triggered %d compensation stages", mc.CompensationStages)
	}
	// Underestimate: exactly one.
	mc2 := &metrics.Collector{}
	if _, err := AMKDJ(left, right, k, Options{EDmax: real / 4, Metrics: mc2}); err != nil {
		t.Fatal(err)
	}
	if mc2.CompensationStages != 1 {
		t.Fatalf("underestimate triggered %d compensation stages, want 1", mc2.CompensationStages)
	}
	if mc2.CompQueueInserts == 0 {
		t.Fatal("aggressive stage must populate the compensation queue")
	}
}

func TestIDJIteratorsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for wname, sets := range testWorkloads(rng) {
		left := buildTree(t, sets[0], 8)
		right := buildTree(t, sets[1], 8)
		total := len(sets[0]) * len(sets[1])
		pull := 200
		if pull > total {
			pull = total
		}
		want := BruteForce(sets[0], sets[1], pull)

		hs, err := HSIDJ(left, right, Options{})
		if err != nil {
			t.Fatal(err)
		}
		am, err := AMIDJ(left, right, Options{BatchK: 37})
		if err != nil {
			t.Fatal(err)
		}
		for name, next := range map[string]func() (Result, bool){
			"HS-IDJ": hs.Next,
			"AM-IDJ": am.Next,
		} {
			var got []Result
			for len(got) < pull {
				res, ok := next()
				if !ok {
					break
				}
				got = append(got, res)
			}
			if len(got) != pull {
				t.Fatalf("%s/%s: produced %d of %d", wname, name, len(got), pull)
			}
			for i := range got {
				if i > 0 && got[i].Dist < got[i-1].Dist {
					t.Fatalf("%s/%s: out of order at %d", wname, name, i)
				}
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("%s/%s: result %d dist %.12g want %.12g",
						wname, name, i, got[i].Dist, want[i].Dist)
				}
			}
		}
		if hs.Err() != nil || am.Err() != nil {
			t.Fatalf("%s: iterator errors %v / %v", wname, hs.Err(), am.Err())
		}
	}
}

// Exhaustion: pulling past |R|x|S| ends cleanly, with every pair
// produced exactly once.
func TestIDJExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	w := geom.NewRect(0, 0, 100, 100)
	l := datagen.Uniform(rng.Int63(), 23, w, 5)
	r := datagen.Uniform(rng.Int63(), 17, w, 5)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	total := len(l) * len(r)

	for name, mk := range map[string]func() (func() (Result, bool), func() error){
		"HS-IDJ": func() (func() (Result, bool), func() error) {
			it, err := HSIDJ(left, right, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return it.Next, it.Err
		},
		"AM-IDJ": func() (func() (Result, bool), func() error) {
			it, err := AMIDJ(left, right, Options{BatchK: 50})
			if err != nil {
				t.Fatal(err)
			}
			return it.Next, it.Err
		},
	} {
		next, errf := mk()
		seen := map[[2]int64]bool{}
		count := 0
		for {
			res, ok := next()
			if !ok {
				break
			}
			key := [2]int64{res.LeftObj, res.RightObj}
			if seen[key] {
				t.Fatalf("%s: duplicate pair %v", name, key)
			}
			seen[key] = true
			count++
			if count > total {
				t.Fatalf("%s: produced more than %d pairs", name, total)
			}
		}
		if err := errf(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count != total {
			t.Fatalf("%s: produced %d of %d pairs", name, count, total)
		}
	}
}

// TestAMIDJWithOracleEDmax is Figure 15's "real Dmax" variant in
// miniature: AM-IDJ with an estimator that knows every stage's true
// k-th distance. testdata/amidj_oracle.golden holds the 300 results and
// the counters of the same run recorded when the oracle was a per-stage
// cutoff hook of its own (Options.EDmaxForK); through the Estimator it
// must be the same run, pair for pair and counter for counter. There is
// no update flag.
func TestAMIDJWithOracleEDmax(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 200, w, 10)
	r := datagen.Uniform(rng.Int63(), 200, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	want := BruteForce(l, r, 300)
	oracle := make(estimate.Exact, len(want))
	for i := range want {
		oracle[i] = want[i].Dist
	}
	mc := &metrics.Collector{}
	it, err := AMIDJ(left, right, Options{BatchK: 60, Estimator: oracle, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < 300; i++ {
		res, ok := it.Next()
		if !ok {
			t.Fatalf("exhausted at %d: %v", i, it.Err())
		}
		fmt.Fprintf(&b, "%d %d %s\n", res.LeftObj, res.RightObj, strconv.FormatFloat(res.Dist, 'g', -1, 64))
	}
	counters := reflect.ValueOf(*mc)
	var line []string
	for i := 0; i < counters.NumField(); i++ {
		if f := counters.Type().Field(i); f.IsExported() {
			line = append(line, fmt.Sprintf("%s=%d", f.Name, counters.Field(i).Int()))
		}
	}
	golden, err := os.ReadFile("testdata/amidj_oracle.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := "collector " + strings.Join(line, " ") + "\n" + b.String(); got != string(golden) {
		g, w := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d: got %q, recorded %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("got %d lines, recorded %d", len(g), len(w))
	}
	if it.Produced() != 300 {
		t.Fatalf("Produced = %d", it.Produced())
	}
	if it.EDmax() <= 0 {
		t.Fatal("EDmax accessor must be positive")
	}
}

func TestSJSortMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for wname, sets := range testWorkloads(rng) {
		left := buildTree(t, sets[0], 8)
		right := buildTree(t, sets[1], 8)
		for _, k := range []int{1, 50, 250} {
			want := BruteForce(sets[0], sets[1], k)
			if len(want) == 0 {
				continue
			}
			dmax := want[len(want)-1].Dist
			got, err := SJSort(left, right, k, dmax, Options{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", wname, k, err)
			}
			checkAgainstBrute(t, wname+"/SJ-SORT", got, sets[0], sets[1], min(k, len(want)))
		}
	}
}

func TestSJSortUnderestimatedDmaxReturnsFewer(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 100, w, 0)
	r := datagen.Uniform(rng.Int63(), 100, w, 0)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	want := BruteForce(l, r, 100)
	// Cut dmax at the 50th distance: at most ~50 pairs qualify.
	got, err := SJSort(left, right, 100, want[49].Dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= 100 {
		t.Fatalf("underestimated dmax returned %d pairs", len(got))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("prefix mismatch at %d", i)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	w := geom.NewRect(0, 0, 100, 100)
	empty := buildTree(t, nil, 8)
	one := buildTree(t, []rtree.Item{{Rect: geom.NewRect(1, 1, 2, 2), Obj: 7}}, 8)
	items := datagen.Uniform(3, 50, w, 5)
	many := buildTree(t, items, 8)

	for name, f := range map[string]func() ([]Result, error){
		"HS-KDJ": func() ([]Result, error) { return HSKDJ(empty, many, 10, Options{}) },
		"B-KDJ":  func() ([]Result, error) { return BKDJ(many, empty, 10, Options{}) },
		"AM-KDJ": func() ([]Result, error) { return AMKDJ(empty, empty, 10, Options{}) },
		"k=0":    func() ([]Result, error) { return BKDJ(many, many, 0, Options{}) },
		"SJ":     func() ([]Result, error) { return SJSort(empty, many, 10, 100, Options{}) },
	} {
		got, err := f()
		if err != nil || got != nil {
			t.Fatalf("%s: %v, %v", name, got, err)
		}
	}

	// Single object vs many.
	got, err := BKDJ(one, many, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBrute(t, "one-vs-many", got,
		[]rtree.Item{{Rect: geom.NewRect(1, 1, 2, 2), Obj: 7}}, items, 5)

	// Nil trees.
	if _, err := BKDJ(nil, many, 5, Options{}); err == nil {
		t.Fatal("nil tree must error")
	}
}

// Identical coordinates everywhere: massive ties must not break any
// algorithm.
func TestAllTies(t *testing.T) {
	items := make([]rtree.Item, 40)
	for i := range items {
		items[i] = rtree.Item{Rect: geom.NewRect(5, 5, 6, 6), Obj: int64(i)}
	}
	left := buildTree(t, items, 8)
	right := buildTree(t, items, 8)
	k := 100
	for name, f := range map[string]func() ([]Result, error){
		"HS-KDJ": func() ([]Result, error) { return HSKDJ(left, right, k, Options{}) },
		"B-KDJ":  func() ([]Result, error) { return BKDJ(left, right, k, Options{}) },
		"AM-KDJ": func() ([]Result, error) { return AMKDJ(left, right, k, Options{}) },
	} {
		got, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != k {
			t.Fatalf("%s: got %d results", name, len(got))
		}
		for _, res := range got {
			if res.Dist != 0 {
				t.Fatalf("%s: tie distance %g", name, res.Dist)
			}
		}
	}
}

// Tiny queue memory: all algorithms stay correct when the main queue
// spills heavily (the Figure 13 regime).
func TestTinyQueueMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 300, w, 10)
	r := datagen.Uniform(rng.Int63(), 300, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	opts := Options{QueueMemBytes: 1024} // ~10 pairs in memory
	k := 200
	mc := &metrics.Collector{}
	optsM := opts
	optsM.Metrics = mc
	for name, f := range map[string]func() ([]Result, error){
		"HS-KDJ": func() ([]Result, error) { return HSKDJ(left, right, k, optsM) },
		"B-KDJ":  func() ([]Result, error) { return BKDJ(left, right, k, opts) },
		"AM-KDJ": func() ([]Result, error) { return AMKDJ(left, right, k, opts) },
	} {
		got, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstBrute(t, name+"/tinyq", got, l, r, k)
	}
	if mc.QueuePageWrites == 0 {
		t.Fatal("tiny queue memory must spill pages")
	}
}

func TestDistanceQueuePolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 250, w, 10)
	r := datagen.Uniform(rng.Int63(), 250, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	for _, allPairs := range []bool{false, true} {
		got, err := BKDJ(left, right, 120, Options{Ablation: Ablation{AllPairs: allPairs}})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBrute(t, "B-KDJ/dqpolicy", got, l, r, 120)
	}
}

func TestCorrectionModesAMIDJ(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 200, w, 10)
	r := datagen.Uniform(rng.Int63(), 200, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	want := BruteForce(l, r, 250)
	for _, mode := range []estimate.Mode{estimate.Aggressive, estimate.Conservative,
		estimate.ArithmeticOnly, estimate.GeometricOnly} {
		it, err := AMIDJ(left, right, Options{BatchK: 40, Ablation: Ablation{Correction: mode}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 250; i++ {
			res, ok := it.Next()
			if !ok {
				t.Fatalf("mode %v: exhausted at %d", mode, i)
			}
			if math.Abs(res.Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("mode %v: result %d mismatch", mode, i)
			}
		}
	}
}

// The headline efficiency claims, in miniature: B-KDJ computes far
// fewer distances than HS-KDJ, and the optimized sweep beats the fixed
// sweep.
func TestEfficiencyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	w := geom.NewRect(0, 0, 10000, 10000)
	l := datagen.Uniform(rng.Int63(), 3000, w, 20)
	r := datagen.Uniform(rng.Int63(), 3000, w, 20)
	left, right := buildTree(t, l, 50), buildTree(t, r, 50)
	k := 100

	run := func(f func(mc *metrics.Collector) error) *metrics.Collector {
		mc := &metrics.Collector{}
		if err := f(mc); err != nil {
			t.Fatal(err)
		}
		return mc
	}
	hs := run(func(mc *metrics.Collector) error {
		_, err := HSKDJ(left, right, k, Options{Metrics: mc})
		return err
	})
	bk := run(func(mc *metrics.Collector) error {
		_, err := BKDJ(left, right, k, Options{Metrics: mc})
		return err
	})
	am := run(func(mc *metrics.Collector) error {
		_, err := AMKDJ(left, right, k, Options{Metrics: mc})
		return err
	})
	if bk.DistCalcs() >= hs.DistCalcs() {
		t.Fatalf("B-KDJ dist calcs %d not below HS-KDJ %d", bk.DistCalcs(), hs.DistCalcs())
	}
	if am.QueueInserts() > bk.QueueInserts() {
		t.Fatalf("AM-KDJ queue inserts %d above B-KDJ %d", am.QueueInserts(), bk.QueueInserts())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestIteratorConstructorErrors(t *testing.T) {
	some := buildTree(t, []rtree.Item{{Rect: geom.NewRect(0, 0, 1, 1), Obj: 1}}, 8)
	if _, err := AMIDJ(nil, some, Options{}); err == nil {
		t.Fatal("AMIDJ with nil tree must error")
	}
	if _, err := HSIDJ(some, nil, Options{}); err == nil {
		t.Fatal("HSIDJ with nil tree must error")
	}
	// Empty-side iterators are immediately exhausted.
	empty := buildTree(t, nil, 8)
	hs, err := HSIDJ(empty, some, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hs.Next(); ok || hs.Err() != nil {
		t.Fatal("empty HSIDJ must be exhausted cleanly")
	}
}

func TestHSPickSide(t *testing.T) {
	some := buildTree(t, []rtree.Item{{Rect: geom.NewRect(0, 0, 1, 1), Obj: 1}}, 8)
	c, err := newContext(some, some, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Object on the left: expand right.
	if c.hsPickSide(&hybridq.Pair{LeftObj: true}) {
		t.Fatal("left object must expand right")
	}
	// Object on the right: expand left.
	if !c.hsPickSide(&hybridq.Pair{RightObj: true}) {
		t.Fatal("right object must expand left")
	}
	// Two nodes: higher level expands; ties expand left.
	hiLo := hybridq.Pair{Left: nodeRef(1, 3), Right: nodeRef(2, 1)}
	if !c.hsPickSide(&hiLo) {
		t.Fatal("higher-level left must expand")
	}
	loHi := hybridq.Pair{Left: nodeRef(1, 0), Right: nodeRef(2, 4)}
	if c.hsPickSide(&loHi) {
		t.Fatal("higher-level right must expand")
	}
	tie := hybridq.Pair{Left: nodeRef(1, 2), Right: nodeRef(2, 2)}
	if !c.hsPickSide(&tie) {
		t.Fatal("ties must expand left")
	}
}

func TestExhaustiveDistDegenerate(t *testing.T) {
	// All objects at one point: the exhaustive distance degenerates to
	// the smallest positive float so AM-IDJ stage growth terminates.
	pt := buildTree(t, []rtree.Item{
		{Rect: geom.RectFromPoint(geom.Point{X: 5, Y: 5}), Obj: 1},
		{Rect: geom.RectFromPoint(geom.Point{X: 5, Y: 5}), Obj: 2},
	}, 8)
	it, err := AMIDJ(pt, pt, Options{BatchK: 10})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		res, ok := it.Next()
		if !ok {
			break
		}
		if res.Dist != 0 {
			t.Fatalf("dist %g on point data", res.Dist)
		}
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("produced %d of 4", count)
	}
}

// Regression: AM-KDJ under the all-pairs distance-queue feed with a
// forced compensation stage. Re-seeded compensation pairs must not
// act as qDmax witnesses (their unexamined remainder may be empty), or
// the cutoff can undershoot and dismiss true results.
func TestAMKDJAllPairsCompensation(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 8; trial++ {
		w := geom.NewRect(0, 0, 1000, 1000)
		l := datagen.GaussianClusters(rng.Int63(), 220, 1+trial%4, w, 60, 10)
		r := datagen.Uniform(rng.Int63(), 220, w, 10)
		left, right := buildTree(t, l, 5+trial), buildTree(t, r, 5+trial)
		k := 120
		want := BruteForce(l, r, k)
		for _, f := range []float64{1e-6, 0.1, 0.4, 0.9} {
			got, err := AMKDJ(left, right, k, Options{
				EDmax:    want[k-1].Dist * f,
				Ablation: Ablation{AllPairs: true},
			})
			if err != nil {
				t.Fatalf("trial %d f=%g: %v", trial, f, err)
			}
			checkAgainstBrute(t, "AM-KDJ/allpairs", got, l, r, k)
		}
	}
}

// TestEDmaxOverrideMustBePositive: only a positive Options.EDmax
// overrides the first cutoff of the adaptive joins. Zero, a negative
// value and NaN all ask the estimator, so AM-KDJ returns the same pairs
// with the same counters for each, reported under the "initial" mode,
// and AM-IDJ opens its first stage at the same cutoff.
func TestEDmaxOverrideMustBePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	w := geom.NewRect(0, 0, 1000, 1000)
	lt := buildTree(t, datagen.Uniform(rng.Int63(), 2000, w, 10), 16)
	rt := buildTree(t, datagen.Uniform(rng.Int63(), 1500, w, 10), 16)
	withEDmax := func(e float64) func(l, r *rtree.Tree, o Options) ([]Result, error) {
		return func(l, r *rtree.Tree, o Options) ([]Result, error) {
			o.EDmax = e
			return AMKDJ(l, r, 500, o)
		}
	}
	want, wantC := runCounted(t, withEDmax(0), lt, rt)
	if mode := wantC.EstimateMode(); mode != obsrv.ModeInitial {
		t.Fatalf("EDmax 0 reported mode %q, want %q", mode, obsrv.ModeInitial)
	}
	first, err := AMIDJ(lt, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	for _, e := range []float64{math.NaN(), -1, math.Inf(-1)} {
		got, gotC := runCounted(t, withEDmax(e), lt, rt)
		sameRun(t, fmt.Sprintf("AM-KDJ with EDmax %v", e), got, want, gotC, wantC)
		if mode := gotC.EstimateMode(); mode != obsrv.ModeInitial {
			t.Errorf("AM-KDJ with EDmax %v reported mode %q, want %q", e, mode, obsrv.ModeInitial)
		}
		it, err := AMIDJ(lt, rt, Options{EDmax: e})
		if err != nil {
			t.Fatal(err)
		}
		if it.EDmax() != first.EDmax() || it.modeLabel != obsrv.ModeInitial {
			t.Errorf("AM-IDJ with EDmax %v opens at %v (%s), with 0 at %v", e, it.EDmax(), it.modeLabel, first.EDmax())
		}
		it.Close()
	}
}
