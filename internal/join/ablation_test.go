package join

import (
	"fmt"
	"sync"
	"testing"

	"distjoin/internal/geom"
)

// TestBatchTailAblation: with Ablation.BatchTail the expansions' batched
// distances lose their last lane to its neighbor, as a kernel that
// handles the tail one element short would; without it they are the
// kernel's.
func TestBatchTailAblation(t *testing.T) {
	q := geom.NewRect(0, 0, 1, 1)
	minX, minY := []float64{2, 4, 8, 16}, []float64{0, 0, 0, 0}
	maxX, maxY := []float64{3, 5, 9, 17}, []float64{1, 1, 1, 1}
	want := make([]float64, 4)
	geom.MinDistBatch(want, q, minX, minY, maxX, maxY)
	for _, tail := range []bool{false, true} {
		e := &expander{batchTail: tail}
		got := make([]float64, 4)
		geom.MinDistBatch(got, q, minX, minY, maxX, maxY)
		e.plantBatchTail(got)
		w := want
		if tail {
			w = []float64{want[0], want[1], want[2], want[2]}
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("BatchTail=%v: lane %d is %v, want %v", tail, i, got[i], w[i])
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
