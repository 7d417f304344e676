package hybridq

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
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
// free list), a full spill/reload cycle must not allocate per pair — only small
// per-event bookkeeping (segment headers, sort boxing) remains, far
// under one allocation per ten pairs. Before pooling this cycle
// allocated a fresh slab per heap split and a fresh page buffer per
// segment and reload, several allocations — and kilobytes — per
// spill event.
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
	if perPair := avg / n; perPair > 0.1 {
		t.Errorf("spill/reload cycle allocates %v per cycle = %v per pair, want < 0.1", avg, perPair)
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
// allocates no slab, no read page and no segment — a cycle that starts
// from a released queue costs exactly what a cycle costs a queue that
// kept its scratch (the per-event sort boxing of
// TestSpillReloadSteadyStateAllocs).
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
