package distjoin

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"distjoin/internal/join"
	"distjoin/internal/memotest"
	"distjoin/internal/rtree"
)

// Indexes are safe for concurrent queries: the buffer pool serializes
// page access and every query carries its own queues and counters.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randObjects(rng, 800, 2000, 10)
	b := randObjects(rng, 800, 2000, 10)
	left, err := NewIndex(a, &IndexConfig{BufferBytes: 8192}) // tiny buffer: heavy contention
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewIndex(b, &IndexConfig{BufferBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	want, err := KDistanceJoin(left, right, 60, nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			algo := []Algorithm{AMKDJ, BKDJ, HSKDJ}[w%3]
			for i := 0; i < 5; i++ {
				got, err := KDistanceJoin(left, right, 60, &Options{Algorithm: algo})
				if err != nil {
					errs <- err
					return
				}
				for j := range got {
					if math.Abs(got[j].Dist-want[j].Dist) > 1e-9 {
						errs <- errMismatch(algo, j)
						return
					}
				}
			}
			// Interleave reads through the other entry points too.
			if err := left.Search(NewRect(0, 0, 500, 500), func(Object) bool { return true }); err != nil {
				errs <- err
				return
			}
			if _, _, err := right.Nearest(PointRect(100, 100), 5); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentFirstTouch races the lazy fill of the indexes'
// sweep-order memo: N goroutines start the same join at the same moment
// on one shared pair of indexes no query has touched, so they all sort
// and publish the same nodes' orders at once (a primary -race target).
// Whichever store wins each slot, every caller must return exactly
// what a query on a private pair of indexes returns. The default pools
// hold these indexes with room to spare, so what is published are
// decoded nodes that all later callers sweep in place: after the race
// they must be bit for bit the nodes the private pair published on one
// goroutine, and a second race over the now-filled memo — eight callers
// reading the same nodes at once — must leave every one of them the
// same node with the same bits.
func TestConcurrentFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randObjects(rng, 900, 2000, 10)
	b := randObjects(rng, 900, 2000, 10)
	build := func(objs []Object) *Index {
		idx, err := NewIndex(objs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	const k = 120
	privLeft, privRight := build(a), build(b)
	want, err := KDistanceJoin(privLeft, privRight, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	// B-KDJ orders nodes AM-KDJ's plans never ask for; the racing callers
	// run both, so the private pair does too.
	if _, err := KDistanceJoin(privLeft, privRight, k, &Options{Algorithm: BKDJ}); err != nil {
		t.Fatal(err)
	}
	private := [2]memotest.Survey{memotest.Read(t, privLeft.tree), memotest.Read(t, privRight.tree)}
	if len(private[0].Nodes) == 0 || len(private[1].Nodes) == 0 {
		t.Fatal("the default pools left no room for decoded nodes; the race would publish permutations only")
	}

	race := func(left, right *Index) {
		t.Helper()
		const callers = 8
		start := make(chan struct{})
		fail := make(chan string, callers)
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			opts := &Options{Algorithm: []Algorithm{AMKDJ, BKDJ}[w%2]}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := KDistanceJoin(left, right, k, opts)
				if err != nil {
					fail <- err.Error()
					return
				}
				if len(got) != len(want) {
					fail <- "result length mismatch"
					return
				}
				for i := range want {
					if got[i] != want[i] {
						fail <- opts.Algorithm.String() + ": result differs from the run on private indexes"
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(fail)
		for msg := range fail {
			t.Fatal(msg)
		}
	}
	for round := 0; round < 3; round++ {
		left, right := build(a), build(b) // fresh: every slot still empty
		race(left, right)
		published := [2]memotest.Survey{memotest.Read(t, left.tree), memotest.Read(t, right.tree)}
		for side, pub := range published {
			if len(pub.Nodes) != len(private[side].Nodes) {
				t.Fatalf("side %d: the race published %d nodes, one goroutine %d", side, len(pub.Nodes), len(private[side].Nodes))
			}
			for cell, n := range pub.Nodes {
				if n.Digest != private[side].Nodes[cell].Digest {
					t.Fatalf("side %d, page %d slot %d: the raced node differs from the one a single goroutine published", side, cell.ID, cell.Slot)
				}
			}
		}
		race(left, right)
		memotest.Unchanged(t, "left index, second race", published[0], memotest.Read(t, left.tree))
		memotest.Unchanged(t, "right index, second race", published[1], memotest.Read(t, right.tree))
	}
}

// TestConcurrentFileIndexJoins runs concurrent joins on two reopened
// index files with four-frame pools, so nearly every node access is a
// miss that reads into a frame another query's miss just evicted, while
// other queries may still be decoding pages those frames held. Every
// answer must be the brute-force one.
func TestConcurrentFileIndexJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	dir := t.TempDir()
	var idx [2]*Index
	var items [2][]rtree.Item
	for side := range idx {
		objs := randObjects(rng, 700, 2000, 10)
		path := filepath.Join(dir, fmt.Sprintf("side%d.rtree", side))
		if _, err := CreateIndexFile(path, objs, nil); err != nil {
			t.Fatal(err)
		}
		var err error
		if idx[side], err = OpenIndexFile(path, &IndexConfig{BufferBytes: 4 * 4096}); err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			items[side] = append(items[side], rtree.Item{Rect: o.Rect, Obj: o.ID})
		}
	}
	const k = 80
	want := join.BruteForce(items[0], items[1], k)

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		algo := []Algorithm{AMKDJ, BKDJ, HSKDJ}[w%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got, err := KDistanceJoin(idx[0], idx[1], k, &Options{Algorithm: algo})
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want) {
					errs <- fmt.Errorf("%v: %d pairs, want %d", algo, len(got), len(want))
					return
				}
				for i := range got {
					if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						errs <- fmt.Errorf("%v: pair %d at %g, brute force %g", algo, i, got[i].Dist, want[i].Dist)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch2 struct {
	algo Algorithm
	i    int
}

func (e errMismatch2) Error() string {
	return e.algo.String() + ": concurrent result mismatch"
}

func errMismatch(a Algorithm, i int) error { return errMismatch2{algo: a, i: i} }

// Concurrent incremental iterators over the same indexes are
// independent.
func TestConcurrentIterators(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randObjects(rng, 400, 1000, 10)
	b := randObjects(rng, 400, 1000, 10)
	left, _ := NewIndex(a, nil)
	right, _ := NewIndex(b, nil)
	want, err := KDistanceJoin(left, right, 100, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it, err := IncrementalJoin(left, right, &Options{BatchK: 30})
			if err != nil {
				fail <- err.Error()
				return
			}
			for i := 0; i < 100; i++ {
				p, ok := it.Next()
				if !ok {
					fail <- "iterator exhausted early"
					return
				}
				if math.Abs(p.Dist-want[i].Dist) > 1e-9 {
					fail <- "iterator result mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}
