package join

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"distjoin/internal/hybridq"
)

// checkReleased fails unless the query behind c has given back
// everything it took from a pool.
func checkReleased(t *testing.T, name string, c *execContext) {
	t.Helper()
	if c.ct != nil {
		t.Errorf("%s: the ended query still holds its cutoff tracker", name)
	}
	if c.comp != nil {
		t.Errorf("%s: the ended query still holds its compensation list", name)
	}
	if c.ex.res != nil {
		t.Errorf("%s: the ended query still holds its restricted columns", name)
	}
	if c.queue.Len() != 0 {
		t.Errorf("%s: the ended query's queue still holds %d pairs", name, c.queue.Len())
	}
}

// TestPooledScratchOwnership: the pooled per-query scratch (the main
// queue's heap array, the cutoff tracker's heap, AM-KDJ's compensation
// list and the sweeps' restricted columns) is never shared by
// two live queries, and each query gives back what it took exactly
// once, whether it finished, failed on a queue fault or was cancelled.
// Several AM-KDJ aggressive stages are interleaved on one goroutine and
// must each end where the same stage run alone ends, with the same
// compensation list; AM-KDJ and AM-IDJ
// queries then run on several goroutines at once, each checked against
// brute force, under the race detector in make race.
func TestPooledScratchOwnership(t *testing.T) {
	l, r := memoTestData()
	lt, rt := buildTree(t, l, 16), buildTree(t, r, 16)
	opts := Options{BatchK: 40, QueueMemBytes: 64 * hybridq.RecordSize}

	// Query i uses the distance queue when i is even and the two-heap
	// tracker (the all-pairs feed) when it is odd.
	const live, steps, eDmax = 4, 400, 60
	type query struct {
		c  *execContext
		ct *cutoffTracker
	}
	begin := func(i int) *query {
		o := opts
		o.Ablation.AllPairs = i%2 == 1
		c, err := newContext(lt, rt, o)
		if err != nil {
			t.Fatal(err)
		}
		q := &query{c: c, ct: newCutoffTracker(c, 2000, o.Ablation.AllPairs)}
		c.queue.Push(c.rootPair())
		return q
	}
	step := func(q *query) {
		p, ok := q.c.queue.Pop()
		if !ok || p.IsResult() {
			return
		}
		run, err := q.c.amAggressiveSweep(p, eDmax, q.ct, q.ct.cutoffFn)
		if err != nil {
			t.Fatal(err)
		}
		q.c.bookkeep(p, run, eDmax)
	}
	type end struct {
		cutoff float64
		queued int
	}
	endOf := func(q *query) end { return end{q.ct.Cutoff(), q.c.queue.Len()} }
	var alone [2]end
	var aloneComp [2][]compInfo
	for i := range alone {
		q := begin(i)
		for s := 0; s < steps; s++ {
			step(q)
		}
		alone[i] = endOf(q)
		aloneComp[i] = slices.Clone(q.c.comp.infos)
		q.c.endQuery(nil)
	}
	qs := make([]*query, live)
	for i := range qs {
		qs[i] = begin(i)
	}
	for s := 0; s < steps; s++ {
		for _, q := range qs {
			step(q)
		}
	}
	held := map[*restrictedCols]int{}
	for i, q := range qs {
		if q.c.ex.res == nil {
			t.Errorf("interleaved query %d never restricted a sweep", i)
		} else if j, ok := held[q.c.ex.res]; ok {
			t.Errorf("interleaved queries %d and %d hold the same restricted columns", j, i)
		}
		held[q.c.ex.res] = i
	}
	for i, q := range qs {
		if got := endOf(q); got != alone[i%2] {
			t.Errorf("interleaved query %d ended at %+v, alone at %+v", i, got, alone[i%2])
		}
		if got := q.c.comp.infos; len(got) == 0 || !slices.Equal(got, aloneComp[i%2]) {
			t.Errorf("interleaved query %d kept %d compensation entries, unlike the %d it keeps alone", i, len(got), len(aloneComp[i%2]))
		}
		q.c.endQuery(nil)
		checkReleased(t, "ended AM-KDJ", q.c)
		q.c.endQuery(nil)
	}

	// A faulted queue and a cancelled query give everything back once.
	fault := errors.New("injected spill fault")
	faulted := opts
	faulted.QueueFaultHook = func(op hybridq.FaultOp) error {
		if op == hybridq.FaultSpill {
			return fault
		}
		return nil
	}
	it, err := AMIDJ(lt, rt, faulted)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		if _, ok := it.Next(); !ok {
			break
		}
		if n > len(l)*len(r) {
			t.Fatal("the faulted iterator never failed")
		}
	}
	if !errors.Is(it.Err(), fault) {
		t.Fatalf("faulted AM-IDJ ended with %v", it.Err())
	}
	checkReleased(t, "faulted AM-IDJ", it.c)
	it.Close()
	if _, err := AMKDJ(lt, rt, 2000, faulted); !errors.Is(err, fault) {
		t.Fatalf("faulted AM-KDJ returned %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := opts
	cancelled.Context = ctx
	it, err = AMIDJ(lt, rt, cancelled)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		if n == 500 {
			cancel()
		}
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("cancelled AM-IDJ ended with %v", it.Err())
	}
	checkReleased(t, "cancelled AM-IDJ", it.c)
	it.Close()
	if _, err := AMKDJ(lt, rt, 2000, cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AM-KDJ returned %v", err)
	}

	// Concurrent queries: a shared tracker heap or queue array
	// would corrupt one of the answers or show up as a race.
	const workers, rounds, k = 4, 3, 1500
	want := BruteForce(l, r, k)
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				var res []Result
				if (w+round)%2 == 0 {
					var err error
					if res, err = AMKDJ(lt, rt, k, opts); err != nil {
						errs <- err
						return
					}
				} else {
					it, err := AMIDJ(lt, rt, opts)
					if err != nil {
						errs <- err
						return
					}
					for len(res) < k {
						p, ok := it.Next()
						if !ok {
							errs <- it.Err()
							return
						}
						res = append(res, p)
					}
					it.Close()
				}
				for i := range res {
					if res[i].Dist != want[i].Dist {
						errs <- errors.New("a concurrent query's answer differs from brute force")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
