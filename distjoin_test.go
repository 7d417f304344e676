package distjoin

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

func randObjects(rng *rand.Rand, n int, span, maxSide float64) []Object {
	objs := make([]Object, n)
	for i := range objs {
		x, y := rng.Float64()*span, rng.Float64()*span
		objs[i] = Object{
			ID:   int64(i),
			Rect: NewRect(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide),
		}
	}
	return objs
}

func bruteKNearest(a, b []Object, k int) []float64 {
	var ds []float64
	for _, x := range a {
		for _, y := range b {
			ds = append(ds, x.Rect.MinDist(y.Rect))
		}
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

func TestNewIndexAndAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objs := randObjects(rng, 500, 1000, 10)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 500 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if idx.Height() < 1 {
		t.Fatalf("Height = %d", idx.Height())
	}
	if !idx.Bounds().Valid() {
		t.Fatal("invalid bounds")
	}

	// Range search matches linear scan.
	q := NewRect(100, 100, 400, 400)
	want := 0
	for _, o := range objs {
		if o.Rect.Intersects(q) {
			want++
		}
	}
	got := 0
	if err := idx.Search(q, func(Object) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Search found %d, want %d", got, want)
	}

	// Nearest matches linear scan.
	probe := PointRect(500, 500)
	objsN, dists, err := idx.Nearest(probe, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(objsN) != 5 || len(dists) != 5 {
		t.Fatalf("Nearest returned %d/%d", len(objsN), len(dists))
	}
	var all []float64
	for _, o := range objs {
		all = append(all, probe.MinDist(o.Rect))
	}
	sort.Float64s(all)
	for i := range dists {
		if math.Abs(dists[i]-all[i]) > 1e-9 {
			t.Fatalf("Nearest %d = %g, want %g", i, dists[i], all[i])
		}
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex([]Object{{ID: -1, Rect: NewRect(0, 0, 1, 1)}}, nil); err == nil {
		t.Fatal("negative ID must be rejected")
	}
	if _, err := NewIndex([]Object{{ID: 1 << 50, Rect: NewRect(0, 0, 1, 1)}}, nil); err == nil {
		t.Fatal("oversized ID must be rejected")
	}
	if _, err := NewIndex([]Object{{ID: 1, Rect: Rect{MinX: 2, MaxX: 1}}}, nil); err == nil {
		t.Fatal("invalid rect must be rejected")
	}
}

func TestIndexFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := randObjects(rng, 300, 1000, 10)
	path := filepath.Join(t.TempDir(), "idx.rtree")
	idx, err := CreateIndexFile(path, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 300 {
		t.Fatalf("Len = %d", idx.Len())
	}
	re, err := OpenIndexFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 300 || re.Bounds() != idx.Bounds() {
		t.Fatal("reopened index mismatch")
	}
	if _, err := OpenIndexFile(filepath.Join(t.TempDir(), "nope"), nil); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestOpenIndexFileReadOnly: an index file the process may only read
// opens and answers queries. Root ignores the mode bits, so the test
// skips as root. Every store OpenIndexFile opens is read-only, for
// every user; internal/storage's TestOpenFileStoreReadOnly checks that
// such a store reads pages as written and refuses Alloc and WritePage.
func TestOpenIndexFileReadOnly(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root may write a mode 0444 file")
	}
	rng := rand.New(rand.NewSource(3))
	objs := randObjects(rng, 300, 1000, 10)
	path := filepath.Join(t.TempDir(), "idx.rtree")
	idx, err := CreateIndexFile(path, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o444); err != nil {
		t.Fatal(err)
	}
	re, err := OpenIndexFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KDistanceJoin(idx, idx, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := KDistanceJoin(re, re, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("the read-only index answers differently")
	}
}

// TestCreateIndexFileFailureCleansUp: a build that fails after the file
// was created must release the descriptor and remove the partial file.
func TestCreateIndexFileFailureCleansUp(t *testing.T) {
	good := randObjects(rand.New(rand.NewSource(2)), 50, 1000, 10)
	for name, bad := range map[string]Object{
		"invalid rect":    {ID: 1, Rect: Rect{MinX: 2, MaxX: 1}},
		"id out of range": {ID: 1 << 48, Rect: NewRect(0, 0, 1, 1)},
	} {
		path := filepath.Join(t.TempDir(), "idx.rtree")
		if _, err := CreateIndexFile(path, append(good[:len(good):len(good)], bad), nil); err == nil {
			t.Fatalf("%s: want an error", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: partial index file left behind (stat err = %v)", name, err)
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			continue // no /proc: the descriptor check needs Linux
		}
		for _, fd := range fds {
			if target, _ := os.Readlink("/proc/self/fd/" + fd.Name()); strings.HasPrefix(target, path) {
				t.Errorf("%s: descriptor %s still open on %s", name, fd.Name(), target)
			}
		}
	}
}

func TestKDistanceJoinAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randObjects(rng, 200, 1000, 10)
	b := randObjects(rng, 200, 1000, 10)
	left, err := NewIndex(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewIndex(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := 50
	want := bruteKNearest(a, b, k)
	dmax := want[k-1]

	for _, algo := range []Algorithm{AMKDJ, BKDJ, HSKDJ, SJSort} {
		opts := &Options{Algorithm: algo, Stats: &Stats{}}
		if algo == SJSort {
			opts.MaxDist = dmax
		}
		pairs, err := KDistanceJoin(left, right, k, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(pairs) != k {
			t.Fatalf("%v: %d pairs", algo, len(pairs))
		}
		for i, p := range pairs {
			if math.Abs(p.Dist-want[i]) > 1e-9 {
				t.Fatalf("%v: pair %d dist %g, want %g", algo, i, p.Dist, want[i])
			}
		}
		if opts.Stats.DistCalcs() == 0 {
			t.Fatalf("%v: stats not collected", algo)
		}
	}
}

func TestKDistanceJoinDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randObjects(rng, 100, 100, 5)
	left, _ := NewIndex(a, nil)
	pairs, err := KDistanceJoin(left, left, 10, nil) // nil options
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("%d pairs", len(pairs))
	}
	// Self-join nearest pairs are the identity pairs at distance 0.
	for _, p := range pairs {
		if p.Dist != 0 {
			t.Fatalf("self-join pair dist %g", p.Dist)
		}
	}
}

func TestKDistanceJoinErrors(t *testing.T) {
	a, _ := NewIndex(randObjects(rand.New(rand.NewSource(5)), 10, 100, 5), nil)
	if _, err := KDistanceJoin(a, a, 5, &Options{Algorithm: SJSort}); err == nil {
		t.Fatal("SJSort without MaxDist must error")
	}
	if _, err := KDistanceJoin(a, a, 5, &Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
	if _, err := IncrementalJoin(a, a, &Options{Algorithm: SJSort}); err == nil {
		t.Fatal("incremental SJSort must error")
	}
	if Algorithm(99).String() == "" || AMKDJ.String() != "AM-KDJ" ||
		BKDJ.String() != "B-KDJ" || HSKDJ.String() != "HS-KDJ" || SJSort.String() != "SJ-SORT" {
		t.Fatal("algorithm names")
	}
}

// TestSJSortMaxDistNaN: a NaN MaxDist is rejected like a missing one,
// not run as a join that prunes nothing; +Inf means no bound and gives
// AM-KDJ's answer.
func TestSJSortMaxDistNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, _ := NewIndex(randObjects(rng, 60, 100, 5), nil)
	b, _ := NewIndex(randObjects(rng, 40, 100, 5), nil)
	if _, err := KDistanceJoin(a, b, 10, &Options{Algorithm: SJSort, MaxDist: math.NaN()}); err == nil {
		t.Fatal("SJSort with a NaN MaxDist must error")
	}
	got, err := KDistanceJoin(a, b, 10, &Options{Algorithm: SJSort, MaxDist: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := KDistanceJoin(a, b, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("+Inf MaxDist: got %v, want %v", got, want)
	}
}

func TestIncrementalJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randObjects(rng, 150, 1000, 10)
	b := randObjects(rng, 150, 1000, 10)
	left, _ := NewIndex(a, nil)
	right, _ := NewIndex(b, nil)
	want := bruteKNearest(a, b, 200)

	for _, algo := range []Algorithm{AMKDJ, HSKDJ} {
		it, err := IncrementalJoin(left, right, &Options{Algorithm: algo, BatchK: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			p, ok := it.Next()
			if !ok {
				t.Fatalf("%v: exhausted at %d (%v)", algo, i, it.Err())
			}
			if math.Abs(p.Dist-want[i]) > 1e-9 {
				t.Fatalf("%v: pair %d dist %g, want %g", algo, i, p.Dist, want[i])
			}
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		// Close ends the iteration with most of the join still unproduced:
		// the queue is released, so Next must stop, not run on from an
		// emptied queue.
		it.Close()
		if p, ok := it.Next(); ok {
			t.Fatalf("%v: Next after Close produced %+v", algo, p)
		}
		if it.Err() != nil {
			t.Fatalf("%v: Err after Close = %v, want nil", algo, it.Err())
		}
		it.Close() // idempotent
		if _, ok := it.Next(); ok {
			t.Fatalf("%v: Next after second Close produced a pair", algo)
		}
	}
}

func TestEmptyIndexJoins(t *testing.T) {
	empty, err := NewIndex(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	some, _ := NewIndex(randObjects(rand.New(rand.NewSource(8)), 20, 100, 5), nil)
	pairs, err := KDistanceJoin(empty, some, 5, nil)
	if err != nil || pairs != nil {
		t.Fatalf("empty join: %v, %v", pairs, err)
	}
	it, err := IncrementalJoin(empty, some, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("empty incremental join must yield nothing")
	}
}

func TestRefinerThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randObjects(rng, 150, 500, 10)
	b := randObjects(rng, 150, 500, 10)
	left, _ := NewIndex(a, nil)
	right, _ := NewIndex(b, nil)

	refiner := func(x, y Object) float64 {
		cx, cy := x.Rect.Center(), y.Rect.Center()
		return math.Hypot(cx.X-cy.X, cx.Y-cy.Y)
	}
	var stats Stats
	pairs, err := KDistanceJoin(left, right, 40, &Options{Refiner: refiner, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: k smallest center distances.
	var all []float64
	for _, x := range a {
		for _, y := range b {
			all = append(all, x.Rect.CenterDist(y.Rect))
		}
	}
	sort.Float64s(all)
	for i := range pairs {
		if math.Abs(pairs[i].Dist-all[i]) > 1e-9 {
			t.Fatalf("pair %d dist %g, want %g", i, pairs[i].Dist, all[i])
		}
	}
	if stats.RefinementCalcs == 0 {
		t.Fatal("refinements not counted")
	}

	// Incremental path too.
	it, err := IncrementalJoin(left, right, &Options{Refiner: refiner, BatchK: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		p, ok := it.Next()
		if !ok {
			t.Fatalf("exhausted at %d", i)
		}
		if math.Abs(p.Dist-all[i]) > 1e-9 {
			t.Fatalf("incremental pair %d dist %g, want %g", i, p.Dist, all[i])
		}
	}
}

func TestHistogramEstimatorThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Clustered data: everything in a small patch of a large declared
	// space, which defeats the uniform model.
	objs := make([]Object, 300)
	for i := range objs {
		x := 5000 + rng.NormFloat64()*20
		y := 5000 + rng.NormFloat64()*20
		objs[i] = Object{ID: int64(i), Rect: NewRect(x, y, x+1, y+1)}
	}
	objs = append(objs, Object{ID: 300, Rect: NewRect(0, 0, 1, 1)})
	objs = append(objs, Object{ID: 301, Rect: NewRect(9999, 9999, 10000, 10000)})
	left, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}

	est, err := NewHistogramEstimator(left, left, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KDistanceJoin(left, left, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := KDistanceJoin(left, left, 100, &Options{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: %g vs %g", i, got[i].Dist, want[i].Dist)
		}
	}
	if _, err := NewHistogramEstimator(nil, left, 0); err == nil {
		t.Fatal("nil index must be rejected")
	}
}

func TestKClosestPairsFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	objs := randObjects(rng, 120, 500, 8)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for i := range objs {
		for j := i + 1; j < len(objs); j++ {
			all = append(all, objs[i].Rect.MinDist(objs[j].Rect))
		}
	}
	sort.Float64s(all)
	pairs, err := KClosestPairs(idx, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 40 {
		t.Fatalf("%d pairs", len(pairs))
	}
	for i, p := range pairs {
		if p.LeftID >= p.RightID {
			t.Fatalf("non-canonical pair (%d,%d)", p.LeftID, p.RightID)
		}
		if math.Abs(p.Dist-all[i]) > 1e-9 {
			t.Fatalf("pair %d dist %g, want %g", i, p.Dist, all[i])
		}
	}
}

func TestWithinJoinFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randObjects(rng, 100, 300, 5)
	b := randObjects(rng, 100, 300, 5)
	left, _ := NewIndex(a, nil)
	right, _ := NewIndex(b, nil)
	const maxDist = 20.0
	want := 0
	for _, x := range a {
		for _, y := range b {
			if x.Rect.MinDist(y.Rect) <= maxDist {
				want++
			}
		}
	}
	got := 0
	if err := WithinJoin(left, right, maxDist, nil, func(Pair) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("within join: %d, want %d", got, want)
	}
	if err := WithinJoin(left, right, 1, nil, nil); err == nil {
		t.Fatal("nil callback must error")
	}
}

func TestSegmentRefinerEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	mkSegs := func(n int) ([]Segment, []Object) {
		segs := make([]Segment, n)
		objs := make([]Object, n)
		for i := range segs {
			a := Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			b := Point{X: a.X + rng.NormFloat64()*40, Y: a.Y + rng.NormFloat64()*40}
			segs[i] = Segment{A: a, B: b}
			objs[i] = Object{ID: int64(i), Rect: segs[i].Bounds()}
		}
		return segs, objs
	}
	lSegs, lObjs := mkSegs(150)
	rSegs, rObjs := mkSegs(150)
	left, _ := NewIndex(lObjs, nil)
	right, _ := NewIndex(rObjs, nil)

	refiner := SegmentRefiner(
		func(id int64) Segment { return lSegs[id] },
		func(id int64) Segment { return rSegs[id] },
	)
	k := 60
	pairs, err := KDistanceJoin(left, right, k, &Options{Refiner: refiner})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: k smallest exact segment distances.
	var all []float64
	for _, a := range lSegs {
		for _, b := range rSegs {
			all = append(all, a.DistToSegment(b))
		}
	}
	sort.Float64s(all)
	for i := range pairs {
		if math.Abs(pairs[i].Dist-all[i]) > 1e-9 {
			t.Fatalf("pair %d dist %.12g, want %.12g", i, pairs[i].Dist, all[i])
		}
	}
}

// Joins run correctly over file-backed (persisted, reopened) indexes.
func TestJoinOverFileBackedIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randObjects(rng, 200, 500, 10)
	b := randObjects(rng, 200, 500, 10)
	dir := t.TempDir()
	if _, err := CreateIndexFile(filepath.Join(dir, "a.rtree"), a, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateIndexFile(filepath.Join(dir, "b.rtree"), b, nil); err != nil {
		t.Fatal(err)
	}
	left, err := OpenIndexFile(filepath.Join(dir, "a.rtree"), &IndexConfig{BufferBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	right, err := OpenIndexFile(filepath.Join(dir, "b.rtree"), &IndexConfig{BufferBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNearest(a, b, 50)
	var stats Stats
	pairs, err := KDistanceJoin(left, right, 50, &Options{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if math.Abs(pairs[i].Dist-want[i]) > 1e-9 {
			t.Fatalf("pair %d dist %g, want %g", i, pairs[i].Dist, want[i])
		}
	}
	if stats.NodeAccessesPhysical == 0 {
		t.Fatal("file-backed join with tiny buffer must do physical reads")
	}
	if stats.MainQueuePeak == 0 {
		t.Fatal("queue peak not observed")
	}
}
