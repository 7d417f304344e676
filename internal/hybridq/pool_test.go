package hybridq

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"distjoin/internal/metrics"
	"distjoin/internal/storage"
)

// pushPopCycle pushes n pairs with the given distance permutation and
// pops them all back, returning the popped distances.
func pushPopCycle(q *Queue, dists []float64, out []float64) []float64 {
	for i, d := range dists {
		q.Push(pairWithDist(d, uint64(i)))
	}
	out = out[:0]
	for {
		p, ok := q.Pop()
		if !ok {
			break
		}
		out = append(out, p.Dist)
	}
	return out
}

// TestSteadyStatePushPopNoAllocs pins the pure in-memory hot path:
// once the heap has reached its working capacity, Push and Pop of
// pair records allocate nothing.
func TestSteadyStatePushPopNoAllocs(t *testing.T) {
	q := New(Config{MemBytes: 1 << 20})
	// Warm the heap's backing array to its working size.
	for i := 0; i < 256; i++ {
		q.Push(pairWithDist(float64(i%37), uint64(i)))
	}
	for {
		if _, ok := q.Pop(); !ok {
			break
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.Push(pairWithDist(float64(i%7), uint64(i)))
		}
		for i := 0; i < 64; i++ {
			q.Pop()
		}
	}); avg != 0 {
		t.Errorf("in-memory push/pop allocates %v per 128-op cycle, want 0", avg)
	}
}

// TestSpillReloadSteadyStateAllocs pins the disk path's reuse: after a
// warm-up cycle has sized the queue's scratch (slab, read page, segment
// free list, spill pages) and its segment list, a full spill/reload
// cycle of 2,000 pairs allocates nothing. Before pooling this cycle
// allocated a fresh slab per heap split and a fresh page buffer per
// segment and reload, several allocations — and kilobytes — per spill
// event.
func TestSpillReloadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under the race detector; allocation counts are not meaningful")
	}
	const n = 2000
	// ~48 pairs of heap budget: the cycle is forced through many
	// splits and reloads.
	q := New(Config{MemBytes: 48 * RecordSize})
	rng := rand.New(rand.NewSource(42))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = rng.Float64() * 1000
	}
	var out []float64
	out = pushPopCycle(q, dists, out) // warm-up: size the scratch
	if len(out) != n {
		t.Fatalf("warm-up cycle returned %d pairs, want %d", len(out), n)
	}
	avg := testing.AllocsPerRun(5, func() {
		out = pushPopCycle(q, dists, out)
		if len(out) != n {
			t.Fatalf("cycle returned %d pairs, want %d", len(out), n)
		}
	})
	if avg != 0 {
		t.Errorf("spill/reload cycle of %d pairs allocates %v, want 0", n, avg)
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHybridQueueSpillReload measures the disk path: a tiny
// memory budget forces every push/pop cycle through heap splits,
// segment spills, and swap-ins, so reuse of the scratch's slab, read
// page and segments dominates the allocation profile. Run with -benchmem;
// before pooling this cycle allocated a fresh slab per split and a
// fresh page buffer per segment and reload.
func BenchmarkHybridQueueSpillReload(b *testing.B) {
	const n = 2000
	q := New(Config{MemBytes: 48 * RecordSize})
	rng := rand.New(rand.NewSource(7))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = rng.Float64() * 1000
	}
	var out []float64
	out = pushPopCycle(q, dists, out) // size the scratch
	if len(out) != n {
		b.Fatalf("warm-up popped %d pairs, want %d", len(out), n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = pushPopCycle(q, dists, out)
		if len(out) != n {
			b.Fatalf("cycle popped %d pairs, want %d", len(out), n)
		}
	}
	if err := q.Err(); err != nil {
		b.Fatal(err)
	}
}

// TestPoolReuseStress proves no pair record, page buffer or segment is
// read after its scratch went back to the pool: several goroutines run
// private queues through spill/reload cycles and release them between
// rounds, so scratches migrate between goroutines continuously. Any
// read of a released scratch is a data race with the next owner's
// writes — the race detector (make race) turns it into a hard failure —
// and any cross-queue corruption shows up as a wrong pop sequence.
func TestPoolReuseStress(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const n = 1500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct memory budgets: a scratch crosses between queues
			// of different fill patterns.
			q := New(Config{MemBytes: (32 + 8*w) * RecordSize})
			rng := rand.New(rand.NewSource(int64(w)))
			dists := make([]float64, n)
			for i := range dists {
				dists[i] = rng.Float64() * 100
			}
			want := append([]float64(nil), dists...)
			sort.Float64s(want)
			var out []float64
			for round := 0; round < 6; round++ {
				out = pushPopCycle(q, dists, out)
				if err := q.Err(); err != nil {
					errs <- err
					return
				}
				if len(out) != n {
					t.Errorf("worker %d round %d: popped %d pairs, want %d", w, round, len(out), n)
					return
				}
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("worker %d round %d: pop %d = %g, want %g (pooled record corrupted)",
							w, round, i, out[i], want[i])
						return
					}
				}
				// Odd rounds release a queue that still holds segments:
				// they travel with the scratch to its next owner.
				if round%2 == 1 {
					for i, d := range dists {
						q.Push(pairWithDist(d, uint64(i)))
					}
				}
				q.Release()
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReleaseIdempotent: Release on a queue that never spilled, and a
// second Release, touch nothing; a released queue is empty and usable.
func TestReleaseIdempotent(t *testing.T) {
	q := New(Config{MemBytes: 1 << 20})
	q.Release()
	q.Push(pairWithDist(1, 1))
	if q.sc != nil {
		t.Fatal("an in-memory queue took a scratch")
	}
	q.Release()
	q.Release()
	if !q.Empty() {
		t.Fatalf("released queue holds %d pairs", q.Len())
	}

	q = New(Config{MemBytes: 4 * RecordSize})
	for i := 0; i < 100; i++ {
		q.Push(pairWithDist(float64(i), uint64(i)))
	}
	if q.sc == nil || q.Segments() == 0 {
		t.Fatal("a spilled queue holds no scratch")
	}
	q.Release()
	if q.sc != nil || !q.Empty() || q.Segments() != 0 {
		t.Fatalf("after Release: scratch held=%v, %d pairs, %d segments", q.sc != nil, q.Len(), q.Segments())
	}
	q.Release()
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReleasedQueueReusable: a released queue pushed to again takes a
// fresh scratch at its next spill and spills and reloads correctly,
// whether it was released drained or with segments still on disk.
func TestReleasedQueueReusable(t *testing.T) {
	const n = 600
	q := New(Config{MemBytes: 16 * RecordSize, Rho: 0.5})
	rng := rand.New(rand.NewSource(5))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = rng.Float64() * 300
	}
	want := append([]float64(nil), dists...)
	sort.Float64s(want)
	var out []float64
	for round := 0; round < 4; round++ {
		if round%2 == 1 {
			// Leave pairs in memory and on disk for Release to drop.
			for i, d := range dists[:n/2] {
				q.Push(pairWithDist(d, uint64(i)))
			}
			q.Release()
		}
		out = pushPopCycle(q, dists, out)
		if len(out) != n {
			t.Fatalf("round %d: popped %d pairs, want %d", round, len(out), n)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("round %d: pop %d = %g, want %g", round, i, out[i], want[i])
			}
		}
		if q.sc == nil {
			t.Fatalf("round %d: a cycle over a 16-pair budget took no scratch", round)
		}
		q.Release()
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmPoolAllocs: a queue that takes its scratch from a warm pool
// allocates no slab, no read page, no segment and no spill page — a
// cycle that starts from a released queue costs no more than a cycle
// costs a queue that kept its scratch (nothing, see
// TestSpillReloadSteadyStateAllocs).
//
// The scratch the pool hands back need not be the one just put: other
// tests leave theirs, and sync.Pool returns a per-P private entry
// before the one a Put has just pushed onto the shared list. Such a
// scratch may have served a smaller query. Were spill pages kept with
// the scratch, it would bring too few and the cycle would allocate the
// rest, one per page; they are pooled one by one instead, so the cycle
// finds the pages the last Release put back. What such a scratch can
// still cost is a slice grown once per query (slab, page table, free
// list), which AllocsPerRun's integer mean over five cycles does not
// count while it stays under five.
func TestWarmPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under the race detector; allocation counts are not meaningful")
	}
	const n = 2000
	q := New(Config{MemBytes: 48 * RecordSize})
	rng := rand.New(rand.NewSource(42))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = rng.Float64() * 1000
	}
	var out []float64
	out = pushPopCycle(q, dists, out) // size the scratch
	held := testing.AllocsPerRun(5, func() {
		out = pushPopCycle(q, dists, out)
	})
	released := testing.AllocsPerRun(5, func() {
		out = pushPopCycle(q, dists, out)
		q.Release()
	})
	if len(out) != n {
		t.Fatalf("cycle returned %d pairs, want %d", len(out), n)
	}
	if released > held {
		t.Errorf("a cycle from the warm pool allocates %v, %v with the scratch held: slab or segments were not reused", released, held)
	}
}

// TestPooledSpillPagesAllocs: a queue built without a store that is
// released and spills again writes into the pages it gave back. With
// the pool warm, a spill/reload cycle followed by Release allocates
// nothing, whichever scratch the next cycle takes: pages are
// interchangeable, and Release has just put back as many as the cycle
// needs. With a fresh spill store per query the cycle allocated every
// page.
//
// A collection empties sync.Pools, and a goroutine that moves to another
// P misses what it put in the last one's private slot: either makes the
// next cycle allocate what it would have reused. So the measurement
// runs with no collection and one P, from the warm-up on, and counts a
// warm cycle's cost, not when the collector ran or where the scheduler
// put the test.
func TestPooledSpillPagesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under the race detector; allocation counts are not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 3000
	q := New(Config{MemBytes: 64 * RecordSize})
	rng := rand.New(rand.NewSource(8))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = rng.Float64() * 500
	}
	out := pushPopCycle(q, dists, nil)
	if q.Segments() != 0 || q.sc == nil || len(q.sc.spill.pages) == 0 {
		t.Fatal("the warm-up cycle spilled nothing into pooled pages")
	}
	if avg := testing.AllocsPerRun(5, func() {
		out = pushPopCycle(q, dists, out)
		q.Release()
	}); avg != 0 {
		t.Errorf("a released queue's spill/reload cycle allocates %v, want 0 (a page per spill?)", avg)
	}
	if len(out) != n {
		t.Fatalf("cycle returned %d pairs, want %d", len(out), n)
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
}

// observedOps runs ops against q — a non-negative entry pushes
// pairs[op], -1 pops — and returns every popped pair.
func observedOps(q *Queue, pairs []Pair, ops []int) []Pair {
	var popped []Pair
	for _, op := range ops {
		if op >= 0 {
			q.Push(pairs[op])
		} else if p, ok := q.Pop(); ok {
			popped = append(popped, *p)
		}
	}
	for {
		p, ok := q.Pop()
		if !ok {
			return popped
		}
		popped = append(popped, *p)
	}
}

// TestPooledSpillStoreMatchesFreshStore: a query's queue that spills
// into pages earlier queries left in the pool — stale records in them,
// some queues released with segments still on disk — pops exactly what
// a queue with a fresh store of its own pops, and does the same page
// I/O and fires the same spill and reload points.
func TestPooledSpillStoreMatchesFreshStore(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 12; round++ {
		capacity := 4 + rng.Intn(40)
		rho := []float64{0, 0.5, 0.01}[round%3]
		pairs := make([]Pair, 600)
		for i := range pairs {
			pairs[i] = pairWithDist(math.Floor(rng.Float64()*200)/4, uint64(i)) // ties across the split points
			pairs[i].RightObj = rng.Intn(2) == 0
		}
		var ops []int
		for i := range pairs {
			ops = append(ops, i)
			if rng.Intn(3) == 0 {
				ops = append(ops, -1)
			}
		}
		run := func(st storage.Store) ([]Pair, *Queue, metrics.Collector, [2]int) {
			var mc metrics.Collector
			var fired [2]int
			q := New(Config{MemBytes: capacity * RecordSize, Rho: rho, Store: st, Metrics: &mc,
				FaultHook: func(op FaultOp) error { fired[op]++; return nil }})
			return observedOps(q, pairs, ops), q, mc, fired
		}
		gotPops, pooled, gotIO, gotFired := run(nil)
		wantPops, fresh, wantIO, wantFired := run(storage.NewMemStore(storage.DefaultPageSize))
		if len(gotPops) != len(pairs) || len(wantPops) != len(pairs) {
			t.Fatalf("round %d: popped %d (pooled) and %d (fresh) of %d pairs", round, len(gotPops), len(wantPops), len(pairs))
		}
		for i := range wantPops {
			if gotPops[i] != wantPops[i] {
				t.Fatalf("round %d pop %d: pooled store %+v, fresh store %+v", round, i, gotPops[i], wantPops[i])
			}
		}
		if gotIO.QueuePageReads != wantIO.QueuePageReads || gotIO.QueuePageWrites != wantIO.QueuePageWrites || gotFired != wantFired {
			t.Fatalf("round %d: pooled store did %d/%d page reads/writes and %v spills/reloads, fresh store %d/%d and %v",
				round, gotIO.QueuePageReads, gotIO.QueuePageWrites, gotFired, wantIO.QueuePageReads, wantIO.QueuePageWrites, wantFired)
		}
		if gotIO.QueuePageWrites == 0 {
			t.Fatalf("round %d: nothing spilled", round)
		}
		if err := pooled.Err(); err != nil {
			t.Fatal(err)
		}
		// Odd rounds hand the pool a store with segments still on it.
		if round%2 == 1 {
			for _, p := range pairs[:200] {
				pooled.Push(p)
			}
		}
		pooled.Release()
		fresh.Release()
	}
}

// TestOwnStoreStaysOutOfPool: a queue built with Config.Store spills
// only into that store, whatever scratch it takes from the pool, and
// Release gives back the scratch without any of its pages: the scratch's
// spill page table and free list stay empty, and later queues built
// without a store never write into the queue's own.
func TestOwnStoreStaysOutOfPool(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dists := make([]float64, 800)
	for i := range dists {
		dists[i] = rng.Float64() * 100
	}
	// Leave released pages, and a scratch with a grown page table and
	// free list, in the pools.
	priv := New(Config{MemBytes: 8 * RecordSize})
	pushPopCycle(priv, dists, nil)
	priv.Release()

	own := storage.NewFaultStore(storage.NewMemStore(storage.DefaultPageSize), -1) // disarmed
	q := New(Config{MemBytes: 8 * RecordSize, Store: own})
	for i, d := range dists {
		q.Push(pairWithDist(d, uint64(i)))
	}
	if q.sc == nil || q.Segments() == 0 {
		t.Fatal("the queue with its own store never spilled")
	}
	sc := q.sc
	for i := 0; i < len(dists)/2; i++ {
		q.Pop()
	}
	if q.store != pageStore(own) {
		t.Fatalf("a queue given a store spills into %T", q.store)
	}
	if len(sc.spill.pages) != 0 || len(sc.free) != 0 {
		t.Fatalf("a queue given a store took %d pooled pages and %d pooled free IDs", len(sc.spill.pages), len(sc.free))
	}
	q.Release() // with segments still on disk: their pages go to q's own free list
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	if q.store != pageStore(own) || len(q.free) == 0 {
		t.Fatalf("after Release the queue holds store %T and %d free pages, want its own and its pages", q.store, len(q.free))
	}
	if len(sc.spill.pages) != 0 || len(sc.free) != 0 {
		t.Fatalf("the scratch came back with %d spill pages and %d free IDs, want none", len(sc.spill.pages), len(sc.free))
	}

	ownStats := own.Stats()
	for round := 0; round < 4; round++ {
		p := New(Config{MemBytes: 8 * RecordSize})
		pushPopCycle(p, dists, nil)
		if p.store == nil || p.store == pageStore(own) {
			t.Fatalf("round %d: a queue without a store spilled into %v", round, p.store)
		}
		p.Release()
	}
	if own.Stats() != ownStats {
		t.Fatalf("queues without a store wrote into another queue's own store: %+v, was %+v", own.Stats(), ownStats)
	}
}

// TestHeapSlabOwnership: a queue takes its heap's arrays (keys,
// rectangle slab and its free list) at its first push and gives them
// back at Release, once, whether or not a fault latched; a released
// queue pushed to again takes fresh ones. The same holds for the
// segment list and bound array, which come with the scratch: an ended
// queue holds neither a rectangle slab nor a bound array. Concurrent
// queues never share an array: TestPoolReuseStress releases queues
// between rounds on several goroutines, under the race detector in
// make race.
func TestHeapSlabOwnership(t *testing.T) {
	fault := errors.New("injected spill fault")
	faulted := New(Config{MemBytes: 8 * RecordSize, FaultHook: func(op FaultOp) error {
		if op == FaultSpill {
			return fault
		}
		return nil
	}})
	clean := New(Config{MemBytes: 8 * RecordSize, Rho: 0.5})
	for _, q := range []*Queue{faulted, clean} {
		if q.heap.slab != nil || q.lows != nil {
			t.Fatal("a new queue holds a heap slab or a bound array")
		}
		for i := 0; i < 40; i++ {
			q.Push(pairWithDist(float64(i%13), uint64(i)))
		}
		if q.heap.slab == nil || len(q.heap.rects) == 0 {
			t.Fatal("a queue that was pushed to holds no heap slab")
		}
	}
	if !errors.Is(faulted.Err(), fault) {
		t.Fatalf("the faulted queue latched %v", faulted.Err())
	}
	if len(clean.lows) == 0 || len(clean.lows) != len(clean.segs) {
		t.Fatalf("the spilled queue holds %d segments and %d bounds", len(clean.segs), len(clean.lows))
	}
	for _, q := range []*Queue{faulted, clean} {
		q.Release()
		if q.heap.slab != nil || q.heap.keys != nil || q.heap.rects != nil || q.heap.free != nil {
			t.Fatal("Release kept the heap's keys, rectangle slab or free list")
		}
		if q.segs != nil || q.lows != nil {
			t.Fatal("Release kept the segment list or the bound array")
		}
		q.Release()
	}
	// Each Release put its slab back once: no slab comes out of the
	// pool twice. (Other tests' slabs may come out too; under the race
	// detector the pool drops some puts, which only shortens the list.)
	seen := map[*heapSlab]bool{}
	var taken []*heapSlab
	for i := 0; i < 16; i++ {
		s := heapSlabs.Get().(*heapSlab)
		if seen[s] {
			t.Fatal("a heap slab was given back twice")
		}
		seen[s] = true
		taken = append(taken, s)
	}
	for _, s := range taken {
		heapSlabs.Put(s)
	}

	clean.Push(pairWithDist(1, 1))
	if clean.heap.slab == nil || cap(clean.heap.keys) == 0 || cap(clean.heap.rects) == 0 {
		t.Fatal("a released queue pushed to again took no heap slab")
	}
	if p, ok := clean.Pop(); !ok || p.Left != 1 {
		t.Fatalf("released queue popped %+v, %v", p, ok)
	}
	clean.Release()
}
