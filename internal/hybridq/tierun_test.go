package hybridq

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"distjoin/internal/metrics"
	"distjoin/internal/storage"
)

// pushSplittingEveryOverflow is Push as it was before the tie-run
// guard, kept as the reference: every push that leaves the heap over
// capacity and past splitFloor re-splits it, however often the split
// finds nothing to spill.
func pushSplittingEveryOverflow(q *Queue, p Pair) {
	if q.err != nil {
		return
	}
	if p.Dist < q.memBound {
		q.heap.PushFrom(&p)
		if q.heap.Len() > q.capacity && q.heap.Len() > q.splitFloor {
			q.splitHeap()
		}
		return
	}
	q.spill(&p)
}

// linearSegmentFor is searchSegment as it was before the binary search,
// without the insertion: the segment containing dist, or the range of
// the one it would create.
func linearSegmentFor(q *Queue, dist float64) (found *segment, lo, hi float64) {
	for _, s := range q.segs {
		if dist >= s.lo && dist < s.hi {
			return s, 0, 0
		}
	}
	lo, hi = q.modelRange(dist)
	if lo < q.memBound {
		lo = q.memBound
	}
	for _, s := range q.segs {
		if s.hi <= dist && s.hi > lo {
			lo = s.hi
		}
		if s.lo > dist && s.lo < hi {
			hi = s.lo
		}
	}
	return nil, lo, hi
}

// observedQueue is a queue with everything the equivalence test
// compares: its page I/O and how often each fault point fired.
type observedQueue struct {
	q               *Queue
	mc              metrics.Collector
	spills, reloads int
}

func newObservedQueue(capacity int, rho float64) *observedQueue {
	o := &observedQueue{}
	o.q = New(Config{
		MemBytes: capacity * RecordSize,
		Rho:      rho,
		Store:    storage.NewMemStore(4 * RecordSize), // 4 pairs a page: page I/O at these sizes
		Metrics:  &o.mc,
		FaultHook: func(op FaultOp) error {
			if op == FaultSpill {
				o.spills++
			} else {
				o.reloads++
			}
			return nil
		},
	})
	return o
}

func (o *observedQueue) state() string {
	return fmt.Sprintf("%s mem=%d segs=%d floor=%d io=%d/%d faults=%d/%d", o.q.String(), o.q.MemLen(), o.q.Segments(),
		o.q.splitFloor, o.mc.QueuePageReads, o.mc.QueuePageWrites, o.spills, o.reloads)
}

// TestTieRunStateEquivalence drives the queue and a twin that still
// splits on every overflow through the same random operations. The
// guard may only change what an unsplittable overflow costs: pops, the
// memory/disk layout, the bound, splitFloor, page I/O and fault-hook
// firings must agree after every operation.
func TestTieRunStateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	guarded := 0
	for trial := 0; trial < 400; trial++ {
		capacity := 1 + rng.Intn(8)
		rho := 0.0
		if trial%2 == 1 {
			rho = []float64{0.05, 0.5, 4}[rng.Intn(3)]
		}
		dists := []float64{0, 1.5, 7}[:1+rng.Intn(3)]
		pushBias := 2 + rng.Intn(4) // pushes per pop while filling; the reverse while draining
		got, want := newObservedQueue(capacity, rho), newObservedQueue(capacity, rho)
		name := fmt.Sprintf("trial %d (capacity %d, rho %g, %d distances)", trial, capacity, rho, len(dists))
		for op := 0; op < 400; op++ {
			// Alternate filling and draining stretches, so segments are
			// swapped back in and refilled while tie runs are held.
			if filling := op/50%2 == 0; (rng.Intn(pushBias+1) > 0) == filling {
				p := Pair{Dist: dists[rng.Intn(len(dists))], Left: uint64(rng.Intn(50)), Right: uint64(op), LeftObj: rng.Intn(2) == 0, RightObj: true}
				before := got.q.splitFloor
				got.q.Push(p)
				// A held run whose floor moved up by one: the push overflowed
				// onto the run (with the guard in, without a split).
				if got.q.tieRun && got.q.splitFloor == before+1 && before > 0 {
					guarded++
				}
				pushSplittingEveryOverflow(want.q, p)
			} else {
				g, gok := popValue(got.q)
				w, wok := popValue(want.q)
				if g != w || gok != wok {
					t.Fatalf("%s op %d: Pop = %+v,%v; reference %+v,%v", name, op, g, gok, w, wok)
				}
			}
			if g, w := got.state(), want.state(); g != w {
				t.Fatalf("%s op %d: state diverged\n got  %s\n want %s", name, op, g, w)
			}
			disk := 0
			for _, s := range got.q.segs {
				disk += s.count
			}
			if disk != got.q.diskPairs {
				t.Fatalf("%s op %d: running spilled-pair count %d, segments hold %d", name, op, got.q.diskPairs, disk)
			}
		}
		for {
			g, gok := popValue(got.q)
			w, wok := popValue(want.q)
			if g != w || gok != wok {
				t.Fatalf("%s drain: Pop = %+v,%v; reference %+v,%v", name, g, gok, w, wok)
			}
			if !gok {
				break
			}
		}
		if g, w := got.state(), want.state(); g != w {
			t.Fatalf("%s drained: state diverged\n got  %s\n want %s", name, g, w)
		}
		if err := got.q.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if guarded < 1000 {
		t.Fatalf("only %d pushes took the tie-run guard; the sequences do not exercise it", guarded)
	}
}

// TestTieRunOverflowAllocs: n tied pairs pushed past capacity cost a
// bounded number of sort slabs, not one per push. Collections between
// the pushes empty the slab pool, so every slab acquired is allocated
// afresh and shows in the bytes allocated — before the guard that was a
// heap-sized slab per push, quadratic in n.
func TestTieRunOverflowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under the race detector; allocation counts are not meaningful")
	}
	const n, capacity = 600, 8
	q := New(Config{MemBytes: capacity * RecordSize})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		q.Push(pairWithDist(0, uint64(i)))
		if i%8 == 0 {
			runtime.GC() // twice: a pooled slab survives one collection in the victim cache
			runtime.GC()
		}
	}
	runtime.ReadMemStats(&after)
	if q.MemLen() != n || q.Segments() != 0 {
		t.Fatalf("tie run left memory: mem=%d segs=%d", q.MemLen(), q.Segments())
	}
	// The heap's own growth is ~2n records; one slab per push would be
	// ~n*n/2 records (18 MB here).
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*n*RecordSize); grew > limit {
		t.Errorf("pushing %d tied pairs allocated %d bytes, want at most %d (a slab per push?)", n, grew, limit)
	}
}

// TestSegmentForMatchesLinearScan checks searchSegment, the
// binary-search routing, against the linear routine it replaced, on queues whose segments come
// from random pushes and pops: same segment found, or same range
// created.
func TestSegmentForMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		rho := []float64{0, 1e-6, 0.01, 1}[trial%4]
		q := New(Config{MemBytes: (1 + rng.Intn(6)) * RecordSize, Rho: rho})
		scale := math.Pow(10, float64(rng.Intn(5)))
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0:
				q.Pop()
			case 1:
				q.Push(pairWithDist(math.Floor(rng.Float64()*20)*scale/20, uint64(op))) // ties and exact boundaries
			default:
				q.Push(pairWithDist(rng.Float64()*scale, uint64(op)))
			}
			dist := q.memBound + rng.Float64()*scale
			if rng.Intn(8) == 0 && len(q.segs) > 0 {
				s := q.segs[rng.Intn(len(q.segs))]
				dist = []float64{s.lo, s.hi, math.Nextafter(s.hi, math.Inf(-1))}[rng.Intn(3)]
			}
			if !(dist >= q.memBound) || math.IsInf(dist, 1) {
				continue
			}
			found, lo, hi := linearSegmentFor(q, dist)
			segsBefore := len(q.segs)
			got := q.searchSegment(dist)
			switch {
			case found != nil && (got != found || len(q.segs) != segsBefore):
				t.Fatalf("trial %d op %d: dist %g routed to [%g,%g), linear scan finds [%g,%g)", trial, op, dist, got.lo, got.hi, found.lo, found.hi)
			case found == nil && (got.lo != lo || got.hi != hi || len(q.segs) != segsBefore+1):
				t.Fatalf("trial %d op %d: dist %g created [%g,%g), linear scan creates [%g,%g)", trial, op, dist, got.lo, got.hi, lo, hi)
			}
			for i := 1; i < len(q.segs); i++ {
				if q.segs[i-1].lo > q.segs[i].lo || q.segs[i-1].hi > q.segs[i].lo {
					t.Fatalf("trial %d op %d: segments %d,%d out of order or overlapping: [%g,%g) [%g,%g)", trial, op, i-1, i,
						q.segs[i-1].lo, q.segs[i-1].hi, q.segs[i].lo, q.segs[i].hi)
				}
			}
		}
		if err := q.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoutedSpillsMatchSearch drives a queue with a model ρ and a twin
// whose route table is emptied before every operation, so that each of
// the twin's spills searches, through random pushes and pops: overflow
// splits, direct spills past the memory bound, and swap-ins that split
// again. Before every push bound for disk, a segment the route table
// yields must be the one the linear scan finds; after every operation
// the two queues must agree on pops, memory/disk layout, page I/O and
// fault-hook firings, and every route must name a live segment; Drain
// must clear them all.
func TestRoutedSpillsMatchSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	routed, searched := 0, 0
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(12)
		rho := []float64{0.01, 0.3, 2, 50}[trial%4]
		// Up to 12 model units: distances past maxModelSegments' last
		// boundary share the open-ended segment.
		scale := math.Sqrt(float64(capacity)*rho) * float64(1+rng.Intn(12))
		got, want := newObservedQueue(capacity, rho), newObservedQueue(capacity, rho)
		name := fmt.Sprintf("trial %d (capacity %d, rho %g, scale %g)", trial, capacity, rho, scale)
		for op := 0; op < 600; op++ {
			if want.q.sc != nil {
				clear(want.q.sc.routes[:])
			}
			if filling := op/100%2 == 0; (rng.Intn(4) > 0) == filling {
				d := rng.Float64() * scale
				if rng.Intn(8) == 0 {
					d = math.Sqrt(math.Floor(d*d/(float64(capacity)*rho)) * float64(capacity) * rho) // a model boundary
				}
				if d >= got.q.memBound {
					if seg := got.q.routed(d); seg != nil {
						if found, _, _ := linearSegmentFor(got.q, d); seg != found {
							t.Fatalf("%s op %d: dist %g routed to [%g,%g), the search finds %v", name, op, d, seg.lo, seg.hi, found)
						}
						routed++
					} else {
						searched++
					}
				}
				p := Pair{Dist: d, Left: uint64(rng.Intn(50)), Right: uint64(op), LeftObj: true, RightObj: true}
				got.q.Push(p)
				want.q.Push(p)
			} else {
				g, gok := popValue(got.q)
				w, wok := popValue(want.q)
				if g != w || gok != wok {
					t.Fatalf("%s op %d: Pop = %+v,%v; searching twin %+v,%v", name, op, g, gok, w, wok)
				}
			}
			if g, w := got.state(), want.state(); g != w {
				t.Fatalf("%s op %d: state diverged\n got  %s\n want %s", name, op, g, w)
			}
			if got.q.sc != nil {
				for i, seg := range got.q.sc.routes {
					if seg != nil && !slices.Contains(got.q.segs, seg) {
						t.Fatalf("%s op %d: route %d names [%g,%g), which is not a live segment", name, op, i, seg.lo, seg.hi)
					}
				}
			}
		}
		// Drain retires every segment, so it must leave no route: the
		// scratch goes back to the pool with the table.
		if trial%2 == 1 && got.q.Segments() > 0 {
			got.q.Drain()
			want.q.Drain()
			if got.q.sc.routes != [maxModelSegments + 1]*segment{} {
				t.Fatalf("%s: routes survive Drain", name)
			}
		}
		for {
			g, gok := popValue(got.q)
			w, wok := popValue(want.q)
			if g != w || gok != wok {
				t.Fatalf("%s drain: Pop = %+v,%v; searching twin %+v,%v", name, g, gok, w, wok)
			}
			if !gok {
				break
			}
		}
		if g, w := got.state(), want.state(); g != w {
			t.Fatalf("%s drained: state diverged\n got  %s\n want %s", name, g, w)
		}
		if err := got.q.Err(); err != nil {
			t.Fatal(err)
		}
		got.q.Release()
		want.q.Release()
	}
	if routed < 5000 || searched < 5000 {
		t.Fatalf("%d spills routed, %d searched: the sequences do not exercise both paths", routed, searched)
	}
}

// BenchmarkHybridQueueTieRun pushes n tied pairs into a 64 KB queue
// (630 pairs): everything past capacity is an overflow with nothing to
// spill. ns/push must not grow with n.
func BenchmarkHybridQueueTieRun(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			q := New(Config{MemBytes: 64 << 10})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					q.Push(pairWithDist(0, uint64(j)))
				}
				b.StopTimer()
				if q.MemLen() != n {
					b.Fatalf("tie run left memory: mem=%d", q.MemLen())
				}
				q.Drain()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/push")
		})
	}
}
