package join

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
)

func TestWithinJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 300, w, 10)
	r := datagen.GaussianClusters(rng.Int63(), 300, 4, w, 60, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)

	for _, maxDist := range []float64{0, 1, 10, 50, 2000} {
		want := map[[2]int64]bool{}
		for _, a := range l {
			for _, b := range r {
				if a.Rect.MinDist(b.Rect) <= maxDist {
					want[[2]int64{a.Obj, b.Obj}] = true
				}
			}
		}
		got := map[[2]int64]bool{}
		err := WithinJoin(left, right, maxDist, Options{}, func(res Result) bool {
			key := [2]int64{res.LeftObj, res.RightObj}
			if got[key] {
				t.Fatalf("maxDist=%g: duplicate pair %v", maxDist, key)
			}
			if res.Dist > maxDist {
				t.Fatalf("maxDist=%g: pair at %g beyond bound", maxDist, res.Dist)
			}
			got[key] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("maxDist=%g: got %d pairs, want %d", maxDist, len(got), len(want))
		}
		for key := range want {
			if !got[key] {
				t.Fatalf("maxDist=%g: missing %v", maxDist, key)
			}
		}
	}
}

func TestWithinJoinEarlyStopAndEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	w := geom.NewRect(0, 0, 100, 100)
	l := datagen.Uniform(rng.Int63(), 100, w, 5)
	left := buildTree(t, l, 8)

	count := 0
	err := WithinJoin(left, left, 1000, Options{}, func(Result) bool {
		count++
		return count < 7
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}

	if err := WithinJoin(left, left, 10, Options{}, nil); err == nil {
		t.Fatal("nil callback must error")
	}
	if err := WithinJoin(left, left, -1, Options{}, func(Result) bool { return true }); err != nil {
		t.Fatal(err)
	}
	empty := buildTree(t, nil, 8)
	called := false
	if err := WithinJoin(empty, left, 10, Options{}, func(Result) bool { called = true; return true }); err != nil || called {
		t.Fatal("empty within join must produce nothing")
	}
}

func TestWithinJoinSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	w := geom.NewRect(0, 0, 200, 200)
	l := datagen.Uniform(rng.Int63(), 80, w, 5)
	left := buildTree(t, l, 8)
	const maxDist = 25.0

	want := 0
	for i := range l {
		for j := i + 1; j < len(l); j++ {
			if l[i].Rect.MinDist(l[j].Rect) <= maxDist {
				want++
			}
		}
	}
	got := 0
	err := WithinJoin(left, left, maxDist, Options{SelfJoin: true}, func(res Result) bool {
		if res.LeftObj >= res.RightObj {
			t.Fatalf("self-join produced non-canonical pair (%d,%d)", res.LeftObj, res.RightObj)
		}
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("self within join: %d pairs, want %d", got, want)
	}
}

func TestWithinJoinRefined(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	w := geom.NewRect(0, 0, 500, 500)
	l := datagen.Uniform(rng.Int63(), 150, w, 20)
	r := datagen.Uniform(rng.Int63(), 150, w, 20)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	const maxDist = 40.0

	want := 0
	for _, a := range l {
		for _, b := range r {
			if a.Rect.CenterDist(b.Rect) <= maxDist {
				want++
			}
		}
	}
	got := 0
	err := WithinJoin(left, right, maxDist, Options{Refiner: centerRefiner}, func(res Result) bool {
		if res.Dist > maxDist {
			t.Fatalf("refined pair at %g beyond bound", res.Dist)
		}
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("refined within join: %d pairs, want %d", got, want)
	}
}

func TestSelfJoinKDJ(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	w := geom.NewRect(0, 0, 500, 500)
	l := datagen.Uniform(rng.Int63(), 120, w, 8)
	left := buildTree(t, l, 8)
	k := 60

	// Reference: k closest unordered distinct pairs.
	type dp struct {
		d    float64
		a, b int64
	}
	var all []dp
	for i := range l {
		for j := i + 1; j < len(l); j++ {
			all = append(all, dp{l[i].Rect.MinDist(l[j].Rect), l[i].Obj, l[j].Obj})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })

	for name, f := range map[string]func() ([]Result, error){
		"HS-KDJ": func() ([]Result, error) { return HSKDJ(left, left, k, Options{SelfJoin: true}) },
		"B-KDJ":  func() ([]Result, error) { return BKDJ(left, left, k, Options{SelfJoin: true}) },
		"AM-KDJ": func() ([]Result, error) { return AMKDJ(left, left, k, Options{SelfJoin: true}) },
	} {
		got, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != k {
			t.Fatalf("%s: %d results", name, len(got))
		}
		for i := range got {
			if got[i].LeftObj >= got[i].RightObj {
				t.Fatalf("%s: non-canonical pair (%d,%d)", name, got[i].LeftObj, got[i].RightObj)
			}
			if math.Abs(got[i].Dist-all[i].d) > 1e-9 {
				t.Fatalf("%s: result %d dist %.12g, want %.12g", name, i, got[i].Dist, all[i].d)
			}
		}
	}

	// Incremental self-join too.
	it, err := AMIDJ(left, left, Options{SelfJoin: true, BatchK: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		res, ok := it.Next()
		if !ok {
			t.Fatalf("AM-IDJ self: exhausted at %d", i)
		}
		if math.Abs(res.Dist-all[i].d) > 1e-9 {
			t.Fatalf("AM-IDJ self: result %d mismatch", i)
		}
	}
}
