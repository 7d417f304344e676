package hybridq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"distjoin/internal/geom"
	"distjoin/internal/metrics"
	"distjoin/internal/pqueue"
	"distjoin/internal/storage"
)

func TestPairEncodeDecodeRoundTrip(t *testing.T) {
	f := func(dist float64, lobj, robj bool, l, r uint64, x1, y1, x2, y2 float64) bool {
		if math.IsNaN(dist) {
			dist = 0
		}
		p := Pair{
			Dist: dist, LeftObj: lobj, RightObj: robj, Left: l, Right: r,
			LeftRect:  geom.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2},
			RightRect: geom.Rect{MinX: y2, MinY: x2, MaxX: y1, MaxY: x1},
		}
		buf := make([]byte, RecordSize)
		p.encode(buf)
		return decodePair(buf) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPairLessOrdering(t *testing.T) {
	less := func(a, b Pair) bool { return PairLess(&a, &b) }
	a := Pair{Dist: 1}
	b := Pair{Dist: 2}
	if !less(a, b) || less(b, a) {
		t.Fatal("distance ordering broken")
	}
	// Expandable (node) pairs sort before result pairs at equal
	// distance, so tied emission order is insertion-independent.
	res := Pair{Dist: 1, LeftObj: true, RightObj: true}
	node := Pair{Dist: 1}
	if !less(node, res) || less(res, node) {
		t.Fatal("result tie-break broken")
	}
	if !res.IsResult() || node.IsResult() {
		t.Fatal("IsResult broken")
	}
	// Deterministic id tie-break.
	p1 := Pair{Dist: 1, Left: 1, Right: 5}
	p2 := Pair{Dist: 1, Left: 2, Right: 1}
	if !less(p1, p2) || less(p2, p1) {
		t.Fatal("id tie-break broken")
	}
	p3 := Pair{Dist: 1, Left: 1, Right: 6}
	if !less(p1, p3) {
		t.Fatal("right-id tie-break broken")
	}
}

// TestPushFromCopies: the queue takes a copy of the pair behind the
// pointer — into the heap or into a segment buffer — so the caller may
// overwrite it the moment PushFrom returns.
func TestPushFromCopies(t *testing.T) {
	q := New(Config{MemBytes: 4 * RecordSize, Store: storage.NewMemStore(storage.DefaultPageSize)})
	var scratch Pair
	const n = 64
	for i := n; i > 0; i-- {
		scratch = pairWithDist(float64(i), uint64(i))
		q.PushFrom(&scratch)
		scratch = Pair{Dist: -1}
	}
	if q.Segments() == 0 {
		t.Fatal("nothing spilled; the test needs the disk path too")
	}
	for i := 1; i <= n; i++ {
		got, ok := q.Pop()
		if want := pairWithDist(float64(i), uint64(i)); !ok || *got != want {
			t.Fatalf("pop %d = %+v (ok %v), want %+v", i, got, ok, want)
		}
	}
}

// popValue pops q and returns a copy of the pair, which stays valid
// across later queue operations (the zero Pair when none was popped):
// tests compare popped pairs by value, never by pointer.
func popValue(q *Queue) (Pair, bool) {
	p, ok := q.Pop()
	if !ok {
		return Pair{}, false
	}
	return *p, true
}

func pairWithDist(d float64, id uint64) Pair {
	return Pair{Dist: d, Left: id, Right: id, LeftRect: geom.NewRect(d, d, d+1, d+1)}
}

func TestPureMemoryBehavesAsHeap(t *testing.T) {
	q := New(Config{MemBytes: 1 << 20})
	dists := []float64{5, 1, 9, 3, 3, 7}
	for i, d := range dists {
		q.Push(pairWithDist(d, uint64(i)))
	}
	if q.Len() != len(dists) || q.Segments() != 0 {
		t.Fatalf("len=%d segs=%d", q.Len(), q.Segments())
	}
	sort.Float64s(dists)
	for i, want := range dists {
		p, ok := q.Pop()
		if !ok || p.Dist != want {
			t.Fatalf("pop %d: %g,%v want %g", i, p.Dist, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue must fail")
	}
}

func TestSpillAndSwapIn(t *testing.T) {
	// Tiny memory: 4 pairs. Force segment traffic.
	mc := &metrics.Collector{}
	q := New(Config{
		MemBytes: 4 * RecordSize,
		Metrics:  mc,
	})
	rng := rand.New(rand.NewSource(3))
	const n = 500
	var dists []float64
	for i := 0; i < n; i++ {
		d := rng.Float64() * 100
		dists = append(dists, d)
		q.Push(pairWithDist(d, uint64(i)))
	}
	if q.Segments() == 0 {
		t.Fatal("tiny memory must have spilled segments")
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	sort.Float64s(dists)
	for i, want := range dists {
		p, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d failed: %v", i, q.Err())
		}
		if p.Dist != want {
			t.Fatalf("pop %d: dist %g, want %g", i, p.Dist, want)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
	if mc.QueuePageWrites == 0 || mc.QueuePageReads == 0 {
		t.Fatalf("expected queue I/O, got r=%d w=%d", mc.QueuePageReads, mc.QueuePageWrites)
	}
	if mc.ModeledIOTime == 0 {
		t.Fatal("queue I/O must charge modeled time")
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestModelBoundariesRouteDirectly(t *testing.T) {
	// With rho set, a pair far beyond the first boundary must go to a
	// segment without entering the heap.
	memBytes := 10 * RecordSize
	rho := 1.0 // capacity 10 -> first boundary sqrt(10*1) ~ 3.16
	q := New(Config{MemBytes: memBytes, Rho: rho})
	q.Push(pairWithDist(100, 1)) // way beyond boundary
	if q.MemLen() != 0 {
		t.Fatalf("distant pair entered heap (mem=%d)", q.MemLen())
	}
	if q.Segments() != 1 {
		t.Fatalf("segments = %d, want 1", q.Segments())
	}
	q.Push(pairWithDist(1, 2)) // below boundary
	if q.MemLen() != 1 {
		t.Fatalf("near pair should enter heap (mem=%d)", q.MemLen())
	}
	// Pop order still global.
	p, _ := q.Pop()
	if p.Dist != 1 {
		t.Fatalf("first pop %g, want 1", p.Dist)
	}
	p, _ = q.Pop()
	if p.Dist != 100 {
		t.Fatalf("second pop %g, want 100", p.Dist)
	}
}

// Property: for any interleaving of pushes and pops, the hybrid queue
// returns exactly what a reference in-memory priority queue returns.
func TestEquivalenceWithReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []Config{
		{MemBytes: 2 * RecordSize},
		{MemBytes: 7 * RecordSize, Rho: 0.5},
		{MemBytes: 64 * RecordSize, Rho: 0.001},
		{MemBytes: 1 << 20},
	} {
		q := New(cfg)
		var ref []float64
		id := uint64(0)
		for op := 0; op < 4000; op++ {
			if rng.Intn(3) != 0 || len(ref) == 0 {
				d := rng.Float64() * 1000
				if rng.Intn(10) == 0 {
					d = float64(rng.Intn(5)) // force ties
				}
				q.Push(pairWithDist(d, id))
				id++
				ref = append(ref, d)
				sort.Float64s(ref)
			} else {
				p, ok := q.Pop()
				if !ok {
					t.Fatalf("cfg %+v op %d: pop failed: %v", cfg, op, q.Err())
				}
				if p.Dist != ref[0] {
					t.Fatalf("cfg %+v op %d: pop %g, want %g", cfg, op, p.Dist, ref[0])
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				t.Fatalf("cfg %+v op %d: len %d, want %d", cfg, op, q.Len(), len(ref))
			}
		}
		if err := q.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: pop sequence is nondecreasing and preserves payloads:
// flags (Refined among them) and rectangles, infinite coordinates
// included, cross the key/slab split and the record encoding intact.
func TestPopPayloadIntegrity(t *testing.T) {
	q := New(Config{MemBytes: 3 * RecordSize, Rho: 0.01})
	rng := rand.New(rand.NewSource(13))
	inf := math.Inf(1)
	want := map[uint64]Pair{}
	for i := 0; i < 300; i++ {
		p := Pair{
			Dist:      rng.Float64() * 50,
			Left:      uint64(i),
			Right:     uint64(i * 7),
			LeftObj:   i%2 == 0,
			RightObj:  i%3 == 0,
			Refined:   i%5 == 0,
			LeftRect:  geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()),
			RightRect: geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()),
		}
		switch i % 4 {
		case 1:
			p.LeftRect = geom.Rect{MinX: -inf, MinY: rng.Float64(), MaxX: inf, MaxY: inf}
		case 2:
			p.RightRect = geom.Rect{MinX: -inf, MinY: -inf, MaxX: rng.Float64(), MaxY: inf}
		}
		want[p.Left] = p
		q.Push(p)
	}
	prev := math.Inf(-1)
	for i := 0; i < 300; i++ {
		p, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if p.Dist < prev {
			t.Fatalf("pop %d: %g < previous %g", i, p.Dist, prev)
		}
		prev = p.Dist
		if want[p.Left] != *p {
			t.Fatalf("payload corrupted: got %+v want %+v", *p, want[p.Left])
		}
	}
}

// TestPoppedPairSurvivesQueueWork: the pair Pop hands out in place is
// not written by the queue work its expansion does. Under a small
// budget a pair is popped, then pushes force heap splits, spills
// straight to a segment and a held tie run; after every push the
// popped pair still equals the copy taken at the pop, and every slot of
// the rectangle slab is held by a key or free, never both or neither.
func TestPoppedPairSurvivesQueueWork(t *testing.T) {
	splits := 0
	q := New(Config{MemBytes: 8 * RecordSize, Rho: 0.5, FaultHook: func(op FaultOp) error {
		if op == FaultSpill {
			splits++
		}
		return nil
	}})
	for i := 0; i < 6; i++ {
		p := pairWithDist(float64(i)/4, uint64(i))
		p.RightRect, p.Refined = geom.NewRect(-1, -2, 3, 4), i%2 == 0
		q.Push(p)
	}
	p, ok := q.Pop()
	if !ok {
		t.Fatal("nothing popped")
	}
	popped := *p
	direct, held := 0, false
	check := func(what string, i int) {
		t.Helper()
		if *p != popped {
			t.Fatalf("%s push %d rewrote the popped pair: %+v, popped as %+v", what, i, *p, popped)
		}
		if h := &q.heap; len(h.rects)-len(h.free) != h.Len() {
			t.Fatalf("%s push %d: %d slab slots held by %d keys", what, i, len(h.rects)-len(h.free), h.Len())
		}
	}
	for i := 0; i < 40; i++ { // distinct distances under the bound: splits
		q.Push(pairWithDist(2-float64(i)/40, uint64(100+i)))
		check("split", i)
	}
	for i := 0; i < 40; i++ { // one distance past capacity: a held tie run
		q.Push(pairWithDist(0, uint64(200+i)))
		held = held || q.tieRun
		check("tied", i)
	}
	for i := 0; i < 40; i++ { // far beyond the bound: straight to a segment
		mem := q.MemLen()
		q.Push(pairWithDist(1000+float64(i), uint64(300+i)))
		if q.MemLen() == mem {
			direct++
		}
		check("direct", i)
	}
	if splits == 0 || direct == 0 || !held {
		t.Fatalf("the pushes did %d splits, %d direct spills, held a tie run: %v; the test needs all three", splits, direct, held)
	}
}

func TestPeek(t *testing.T) {
	q := New(Config{MemBytes: 2 * RecordSize})
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty must fail")
	}
	for _, d := range []float64{9, 2, 5, 1, 8, 3} {
		q.Push(pairWithDist(d, uint64(d)))
	}
	p, ok := q.Peek()
	if !ok || p.Dist != 1 {
		t.Fatalf("peek = %g,%v", p.Dist, ok)
	}
	if q.Len() != 6 {
		t.Fatal("peek must not consume")
	}
}

func TestDrain(t *testing.T) {
	q := New(Config{MemBytes: 2 * RecordSize})
	for i := 0; i < 100; i++ {
		q.Push(pairWithDist(float64(i), uint64(i)))
	}
	q.Drain()
	if !q.Empty() || q.Len() != 0 || q.Segments() != 0 {
		t.Fatal("drain must empty the queue")
	}
	// Queue is reusable after Drain and reuses freed pages.
	for i := 0; i < 100; i++ {
		q.Push(pairWithDist(float64(i), uint64(i)))
	}
	for i := 0; i < 100; i++ {
		p, ok := q.Pop()
		if !ok || p.Dist != float64(i) {
			t.Fatalf("after drain: pop %d = %g,%v", i, p.Dist, ok)
		}
	}
}

func TestAllEqualDistances(t *testing.T) {
	q := New(Config{MemBytes: 2 * RecordSize})
	for i := 0; i < 50; i++ {
		q.Push(pairWithDist(7, uint64(i)))
	}
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		p, ok := q.Pop()
		if !ok || p.Dist != 7 {
			t.Fatalf("pop %d: %v %v (err=%v)", i, p, ok, q.Err())
		}
		if seen[p.Left] {
			t.Fatalf("duplicate pair %d", p.Left)
		}
		seen[p.Left] = true
	}
	if !q.Empty() {
		t.Fatal("not empty")
	}
}

func TestErrLatching(t *testing.T) {
	st := storage.NewMemStore(storage.DefaultPageSize)
	q := New(Config{MemBytes: 2 * RecordSize, Store: st})
	for i := 0; i < 10; i++ {
		q.Push(pairWithDist(float64(i), uint64(i)))
	}
	st.Close() // force storage failures
	for i := 0; i < 500; i++ {
		q.Push(pairWithDist(float64(i), uint64(i)))
	}
	if q.Err() == nil {
		t.Skip("no spill happened before close; nothing to latch")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop must fail after latched error")
	}
}

func TestString(t *testing.T) {
	q := New(Config{MemBytes: RecordSize})
	if q.String() == "" {
		t.Fatal("String must be non-empty")
	}
}

func BenchmarkHybridQueuePushPop(b *testing.B) {
	q := New(Config{MemBytes: 64 << 10, Rho: 1e-6})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(pairWithDist(rng.Float64()*100, uint64(i)))
		if q.Len() > 4096 {
			q.Pop()
		}
	}
}

// BenchmarkHeapPushPop/key32 is the main queue's in-memory heap alone
// — the key heap with its rectangle slab, fed 104-byte Pairs through
// PushFrom from one reused scratch pair as the sweep feeds it, and
// popping each pair into one reused Pair as Queue.Pop does: the
// in-memory queue path with nothing spilling. pair104-generic is
// pqueue.Heap over whole Pairs ordered by PairLess, which sifts all 104
// bytes and calls the comparator through a function value: the
// difference is what the key/slab split and the inlined comparison
// save. It lives here rather than beside pqueue's own
// BenchmarkHeapPushPop because pqueue cannot import hybridq.
func BenchmarkHeapPushPop(b *testing.B) {
	type pairPusher interface {
		PushFrom(*Pair)
		PopInto(*Pair)
		Len() int
	}
	for _, c := range []struct {
		name string
		heap pairPusher
	}{
		{"key32", new(pairHeap)},
		{"pair104-generic", genericPairHeap{pqueue.NewHeap(PairLess)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := c.heap
			rng := rand.New(rand.NewSource(1))
			scratch, out := new(Pair), new(Pair)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*scratch = pairWithDist(rng.Float64()*100, uint64(i))
				scratch.LeftObj, scratch.RightObj = i%3 == 0, i%3 == 0
				h.PushFrom(scratch)
				if h.Len() > 1024 {
					h.PopInto(out)
				}
			}
		})
	}
}

// genericPairHeap gives pqueue.Heap the key heap's PopInto.
type genericPairHeap struct{ *pqueue.Heap[Pair] }

func (h genericPairHeap) PopInto(out *Pair) { *out = h.Pop() }

func TestModelSegmentCountBounded(t *testing.T) {
	// A tiny heap with a tiny rho spreads distances across a huge
	// number of model boundaries; the segment count must stay capped
	// (each segment holds a page buffer).
	q := New(Config{MemBytes: 2 * RecordSize, Rho: 1e-6})
	rng := rand.New(rand.NewSource(55))
	const n = 5000
	var dists []float64
	for i := 0; i < n; i++ {
		d := rng.Float64() * 1e6
		dists = append(dists, d)
		q.Push(pairWithDist(d, uint64(i)))
	}
	if q.Segments() > 80 { // cap plus a few overflow-split segments
		t.Fatalf("segment count %d exceeds cap", q.Segments())
	}
	sort.Float64s(dists)
	for i, want := range dists {
		p, ok := q.Pop()
		if !ok || p.Dist != want {
			t.Fatalf("pop %d: %g,%v want %g (err=%v)", i, p.Dist, ok, want, q.Err())
		}
	}
}
