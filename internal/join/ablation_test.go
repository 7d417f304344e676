package join

import (
	"fmt"
	"sync"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// TestBatchTailAblation: with Ablation.BatchTail the last child of an
// HS expansion takes its predecessor's distance, as a batch kernel that
// handles the tail one element short would; without it every child's
// distance to the intact side is the batch kernel's.
func TestBatchTailAblation(t *testing.T) {
	var leaf []rtree.Item
	for i, x := range []float64{2, 4, 8, 16} {
		leaf = append(leaf, rtree.Item{Rect: geom.NewRect(x, 0, x+1, 1), Obj: int64(i + 1)})
	}
	other := geom.NewRect(0, 0, 1, 1)
	lt, rt := buildTree(t, leaf, 16), buildTree(t, []rtree.Item{{Rect: other, Obj: 9}}, 16)
	var n rtree.NodeSoA // the children in the order the expansion reads them
	if err := lt.ReadNodeSoA(lt.Root(), &n, nil); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n.Len())
	geom.MinDistBatch(want, other, n.MinX, n.MinY, n.MaxX, n.MaxY)
	for _, tail := range []bool{false, true} {
		c, err := newContext(lt, rt, Options{Ablation: Ablation{BatchTail: tail}})
		if err != nil {
			t.Fatal(err)
		}
		root := c.rootPair() // two leaves: the left one is expanded
		if err := c.hsExpand(&root, nil); err != nil {
			t.Fatal(err)
		}
		got := map[uint64]float64{}
		for c.queue.Len() > 0 {
			p, _ := c.queue.Pop()
			got[p.Left] = p.Dist
		}
		c.endQuery(nil)
		for i := range want {
			w := want[i]
			if tail && i == len(want)-1 {
				w = want[i-1]
			}
			if d, ok := got[n.Refs[i]]; !ok || d != w {
				t.Fatalf("BatchTail=%v: child %d has distance %v (queued %v), want %v", tail, i, d, ok, w)
			}
		}
	}
}

// TestAblationPerQuery: an ablation belongs to its query. AM-KDJ queries
// with either planted bug and clean ones run on the same trees, first
// interleaved on one goroutine, then on several goroutines at once
// (under the race detector in make race): every clean answer is the
// brute-force answer and every planted one differs from it.
func TestAblationPerQuery(t *testing.T) {
	l, r := memoTestData()
	lt, rt := buildTree(t, l, 16), buildTree(t, r, 16)
	const k = 1500
	want := BruteForce(l, r, k)
	kinds := []struct {
		name    string
		a       Ablation
		planted bool
	}{
		{"clean", Ablation{}, false},
		{"prune-scale", Ablation{PruneScale: 0.85}, true},
		{"batch-tail", Ablation{BatchTail: true}, true},
	}
	// run runs query i, of kind i mod 3, and says what is wrong with its
	// answer, if anything.
	run := func(i int) error {
		kind := kinds[i%len(kinds)]
		got, err := AMKDJ(lt, rt, k, Options{Ablation: kind.a})
		if err != nil {
			return fmt.Errorf("query %d (%s): %w", i, kind.name, err)
		}
		same := len(got) == len(want)
		for j := 0; same && j < len(got); j++ {
			same = got[j].Dist == want[j].Dist
		}
		if same == kind.planted {
			verdict := "differs from"
			if same {
				verdict = "equals"
			}
			return fmt.Errorf("query %d (%s): answer %s brute force", i, kind.name, verdict)
		}
		return nil
	}

	for i := 0; i < 3*len(kinds); i++ {
		if err := run(i); err != nil {
			t.Fatal(err)
		}
	}

	const workers, rounds = 6, 2
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := run(w + round); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
