package join

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
)

// centerRefiner is a contract-conforming exact distance: the distance
// between rect centers, which always lies between the MBR minimum and
// maximum distances.
func centerRefiner(l, r int64, lr, rr geom.Rect) float64 {
	return lr.CenterDist(rr)
}

// bruteRefined computes the reference k nearest pairs under the
// refined (center) distance.
func bruteRefined(left, right []rtree.Item, k int) []float64 {
	var ds []float64
	for _, l := range left {
		for _, r := range right {
			ds = append(ds, l.Rect.CenterDist(r.Rect))
		}
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

func TestRefinedKDJMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 250, w, 20)
	r := datagen.GaussianClusters(rng.Int63(), 250, 4, w, 80, 20)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	k := 120
	want := bruteRefined(l, r, k)
	opts := Options{Refiner: centerRefiner}

	for name, f := range map[string]func() ([]Result, error){
		"HS-KDJ": func() ([]Result, error) { return HSKDJ(left, right, k, opts) },
		"B-KDJ":  func() ([]Result, error) { return BKDJ(left, right, k, opts) },
		"AM-KDJ": func() ([]Result, error) { return AMKDJ(left, right, k, opts) },
	} {
		got, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != k {
			t.Fatalf("%s: got %d results", name, len(got))
		}
		for i := range got {
			if i > 0 && got[i].Dist < got[i-1].Dist {
				t.Fatalf("%s: out of order at %d", name, i)
			}
			if math.Abs(got[i].Dist-want[i]) > 1e-9 {
				t.Fatalf("%s: result %d dist %.12g, want %.12g", name, i, got[i].Dist, want[i])
			}
			// Every emitted result must carry the refined distance.
			if d := got[i].LeftRect.CenterDist(got[i].RightRect); math.Abs(d-got[i].Dist) > 1e-9 {
				t.Fatalf("%s: result %d distance is not the refined one", name, i)
			}
		}
	}
}

func TestRefinedKDJWithAllPairsPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 200, w, 15)
	r := datagen.Uniform(rng.Int63(), 200, w, 15)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	k := 80
	want := bruteRefined(l, r, k)
	got, err := BKDJ(left, right, k, Options{Refiner: centerRefiner, Ablation: Ablation{AllPairs: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i]) > 1e-9 {
			t.Fatalf("result %d dist %.12g, want %.12g", i, got[i].Dist, want[i])
		}
	}
}

func TestRefinedSJSort(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 200, w, 15)
	r := datagen.Uniform(rng.Int63(), 200, w, 15)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	k := 70
	want := bruteRefined(l, r, k)
	got, err := SJSort(left, right, k, want[k-1], Options{Refiner: centerRefiner})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("got %d results", len(got))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i]) > 1e-9 {
			t.Fatalf("result %d dist %.12g, want %.12g", i, got[i].Dist, want[i])
		}
	}
}

func TestRefinedIncrementalJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 150, w, 15)
	r := datagen.GaussianClusters(rng.Int63(), 150, 3, w, 60, 15)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	pull := 200
	want := bruteRefined(l, r, pull)

	hs, err := HSIDJ(left, right, Options{Refiner: centerRefiner})
	if err != nil {
		t.Fatal(err)
	}
	am, err := AMIDJ(left, right, Options{Refiner: centerRefiner, BatchK: 45})
	if err != nil {
		t.Fatal(err)
	}
	for name, next := range map[string]func() (Result, bool){"HS-IDJ": hs.Next, "AM-IDJ": am.Next} {
		for i := 0; i < pull; i++ {
			res, ok := next()
			if !ok {
				t.Fatalf("%s: exhausted at %d", name, i)
			}
			if math.Abs(res.Dist-want[i]) > 1e-9 {
				t.Fatalf("%s: result %d dist %.12g, want %.12g", name, i, res.Dist, want[i])
			}
		}
	}
}

// Refined AM-IDJ pulled to exhaustion still produces every pair
// exactly once.
func TestRefinedIDJExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	w := geom.NewRect(0, 0, 200, 200)
	l := datagen.Uniform(rng.Int63(), 19, w, 8)
	r := datagen.Uniform(rng.Int63(), 23, w, 8)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	it, err := AMIDJ(left, right, Options{Refiner: centerRefiner, BatchK: 40})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	prev := math.Inf(-1)
	count := 0
	for {
		res, ok := it.Next()
		if !ok {
			break
		}
		if res.Dist < prev-1e-12 {
			t.Fatalf("out of order at %d", count)
		}
		prev = res.Dist
		key := [2]int64{res.LeftObj, res.RightObj}
		if seen[key] {
			t.Fatalf("duplicate %v", key)
		}
		seen[key] = true
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != len(l)*len(r) {
		t.Fatalf("produced %d of %d", count, len(l)*len(r))
	}
}

// Each candidate pair is refined at most once, and the refinement
// count is far below the full cross product.
func TestRefinementCountedAndLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	w := geom.NewRect(0, 0, 2000, 2000)
	l := datagen.Uniform(rng.Int63(), 500, w, 10)
	r := datagen.Uniform(rng.Int63(), 500, w, 10)
	left, right := buildTree(t, l, 16), buildTree(t, r, 16)
	mc := &metrics.Collector{}
	k := 50
	if _, err := BKDJ(left, right, k, Options{Refiner: centerRefiner, Metrics: mc}); err != nil {
		t.Fatal(err)
	}
	if mc.RefinementCalcs == 0 {
		t.Fatal("no refinements recorded")
	}
	total := int64(len(l) * len(r))
	if mc.RefinementCalcs > total/10 {
		t.Fatalf("refined %d of %d pairs; refinement is not lazy", mc.RefinementCalcs, total)
	}
}

// A refiner returning less than the MBR lower bound is clamped, so
// ordering invariants hold even against a buggy refiner.
func TestRefinerClampedFromBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	w := geom.NewRect(0, 0, 500, 500)
	l := datagen.Uniform(rng.Int63(), 100, w, 10)
	r := datagen.Uniform(rng.Int63(), 100, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	bad := func(int64, int64, geom.Rect, geom.Rect) float64 { return -1 }
	got, err := BKDJ(left, right, 40, Options{Refiner: bad})
	if err != nil {
		t.Fatal(err)
	}
	// Clamping turns the refiner into the identity on MBR distances.
	want := BruteForce(l, r, 40)
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("result %d dist %.12g, want %.12g", i, got[i].Dist, want[i].Dist)
		}
	}
}

// AM-KDJ with refinement stays correct across extreme eDmax values.
func TestRefinedAMKDJAnyEDmax(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 180, w, 12)
	r := datagen.Uniform(rng.Int63(), 180, w, 12)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	k := 90
	want := bruteRefined(l, r, k)
	for _, e := range []float64{1e-9, 1, 20, 1e6} {
		got, err := AMKDJ(left, right, k, Options{Refiner: centerRefiner, EDmax: e})
		if err != nil {
			t.Fatalf("eDmax=%g: %v", e, err)
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i]) > 1e-9 {
				t.Fatalf("eDmax=%g: result %d dist %.12g, want %.12g", e, i, got[i].Dist, want[i])
			}
		}
	}
}

// The histogram estimator plugs in via Options.Estimator and yields
// correct results with fewer/cheaper stages on clustered data.
func TestHistogramEstimatorIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	w := geom.NewRect(0, 0, 10000, 10000)
	// Dense shared cluster plus outliers: the uniform model
	// overestimates eDmax badly here.
	l := datagen.GaussianClusters(rng.Int63(), 400, 1, w, 40, 5)
	r := datagen.GaussianClusters(rng.Int63(), 400, 1, w, 40, 5)
	l = append(l, rtree.Item{Rect: geom.NewRect(0, 0, 1, 1), Obj: 9001})
	r = append(r, rtree.Item{Rect: geom.NewRect(9999, 9999, 10000, 10000), Obj: 9001})
	left, right := buildTree(t, l, 16), buildTree(t, r, 16)

	hist, err := NewHistogramEstimator(left, right, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := 200
	want := BruteForce(l, r, k)

	for name, opts := range map[string]Options{
		"uniform":   {},
		"histogram": {Estimator: hist},
	} {
		got, err := AMKDJ(left, right, k, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstBrute(t, "AM-KDJ/"+name, got, l, r, k)
	}

	// The histogram's initial estimate must be much closer to truth.
	realD := want[k-1].Dist
	histEst := hist.Initial(k)
	if histEst > realD*20 {
		t.Fatalf("histogram estimate %g still wildly above real %g", histEst, realD)
	}

	// AM-IDJ with the histogram estimator also stays correct.
	it, err := AMIDJ(left, right, Options{Estimator: hist, BatchK: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		res, ok := it.Next()
		if !ok {
			t.Fatalf("exhausted at %d", i)
		}
		if math.Abs(res.Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("AM-IDJ/histogram: result %d mismatch", i)
		}
	}
}

func TestNewHistogramEstimatorValidation(t *testing.T) {
	if _, err := NewHistogramEstimator(nil, nil, 8); err == nil {
		t.Fatal("nil trees must be rejected")
	}
}
