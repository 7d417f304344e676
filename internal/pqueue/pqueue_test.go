package pqueue

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapBasics(t *testing.T) {
	h := NewHeap(func(a, b *int) bool { return *a < *b })
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("fresh heap must be empty")
	}
	for _, v := range []int{5, 3, 8, 1, 9, 2} {
		h.Push(v)
	}
	if h.Len() != 6 {
		t.Fatalf("Len = %d, want 6", h.Len())
	}
	if h.Peek() != 1 {
		t.Fatalf("Peek = %d, want 1", h.Peek())
	}
	want := []int{1, 2, 3, 5, 8, 9}
	for i, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if !h.Empty() {
		t.Fatal("heap must be empty after draining")
	}
}

func TestHeapPopPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty heap must panic")
		}
	}()
	NewHeap(func(a, b *int) bool { return *a < *b }).Pop()
}

func TestHeapReplaceTop(t *testing.T) {
	h := NewHeap(func(a, b *int) bool { return *a < *b })
	for _, v := range []int{1, 5, 3} {
		h.Push(v)
	}
	if got := h.ReplaceTop(10); got != 1 {
		t.Fatalf("ReplaceTop returned %d, want 1", got)
	}
	if got := h.Pop(); got != 3 {
		t.Fatalf("after replace, pop = %d, want 3", got)
	}
}

func TestHeapClear(t *testing.T) {
	h := NewHeap(func(a, b *int) bool { return *a < *b })
	h.Push(1)
	h.Push(2)
	h.Clear()
	if !h.Empty() {
		t.Fatal("Clear must empty the heap")
	}
	h.Push(7)
	if h.Peek() != 7 {
		t.Fatal("heap unusable after Clear")
	}
}

func TestHeapMaxOrdering(t *testing.T) {
	h := NewHeap(func(a, b *float64) bool { return *a > *b })
	for _, v := range []float64{1, 9, 4, 7} {
		h.Push(v)
	}
	if h.Peek() != 9 {
		t.Fatalf("max-heap Peek = %g, want 9", h.Peek())
	}
}

// Property: popping everything yields a sorted permutation of the input.
func TestHeapSortProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		h := NewHeap(func(a, b *float64) bool { return *a < *b })
		for _, v := range vals {
			h.Push(v)
		}
		var got []float64
		for !h.Empty() {
			got = append(got, h.Pop())
		}
		if len(got) != len(vals) {
			return false
		}
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved push/pop dequeues match a reference sorted list.
func TestHeapInterleavedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHeap(func(a, b *int) bool { return *a < *b })
	var ref []int
	for op := 0; op < 5000; op++ {
		if rng.Intn(3) != 0 || len(ref) == 0 {
			v := rng.Intn(1000)
			h.Push(v)
			ref = append(ref, v)
			sort.Ints(ref)
		} else {
			got := h.Pop()
			if got != ref[0] {
				t.Fatalf("op %d: pop = %d, reference min = %d", op, got, ref[0])
			}
			ref = ref[1:]
		}
	}
}

func TestDistanceQueueCutoff(t *testing.T) {
	q := NewDistanceQueue(3)
	if !math.IsInf(q.Cutoff(), 1) {
		t.Fatal("cutoff must be +Inf before k distances are held")
	}
	q.Insert(5)
	q.Insert(2)
	if !math.IsInf(q.Cutoff(), 1) {
		t.Fatal("cutoff must be +Inf with 2 of 3 held")
	}
	q.Insert(9)
	if q.Cutoff() != 9 {
		t.Fatalf("cutoff = %g, want 9", q.Cutoff())
	}
	if !q.Insert(1) { // displaces 9
		t.Fatal("1 should be retained")
	}
	if q.Cutoff() != 5 {
		t.Fatalf("cutoff = %g, want 5", q.Cutoff())
	}
	if q.Insert(100) {
		t.Fatal("100 exceeds cutoff and must be rejected")
	}
	if q.Len() != 3 || q.K() != 3 {
		t.Fatalf("Len/K = %d/%d", q.Len(), q.K())
	}
}

func TestDistanceQueuePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 must panic")
		}
	}()
	NewDistanceQueue(0)
}

// Property: after n inserts, cutoff equals the k-th smallest of the
// inserted values (or +Inf when n < k).
func TestDistanceQueueKthSmallestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(20)
		n := rng.Intn(100)
		q := NewDistanceQueue(k)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
			q.Insert(vals[i])
		}
		sort.Float64s(vals)
		want := math.Inf(1)
		if n >= k {
			want = vals[k-1]
		}
		if got := q.Cutoff(); got != want {
			t.Fatalf("k=%d n=%d: cutoff = %g, want %g", k, n, got, want)
		}
	}
}

// wide is a 104-byte element, the size of the main queue's pair
// record: big enough that a by-value comparator or a swapping sift
// shows up as copying.
type wide struct {
	key float64
	id  uint64
	pad [11]uint64
}

func newWide(key float64, id uint64) wide {
	w := wide{key: key, id: id}
	for i := range w.pad {
		w.pad[i] = id*31 + uint64(i)
	}
	return w
}

func wideLess(a, b *wide) bool { return a.key < b.key }

// checkWide verifies a dequeued element carries the smallest live key
// and its own payload, and retires it from the reference.
func checkWide(t *testing.T, op int, got wide, keys *[]float64, live map[uint64]wide) {
	t.Helper()
	if got.key != (*keys)[0] {
		t.Fatalf("op %d: dequeued key %g, reference min %g", op, got.key, (*keys)[0])
	}
	if want, ok := live[got.id]; !ok || want != got {
		t.Fatalf("op %d: element %d dequeued twice or corrupted: %+v", op, got.id, got)
	}
	delete(live, got.id)
	*keys = (*keys)[1:]
}

// Property: on a wide element with heavy key ties, interleaved
// Push/Pop/ReplaceTop dequeue the reference's minimum key every time
// and never lose, duplicate or tear an element (the hole-based sifts
// move elements through a side slot).
func TestHeapWideInterleavedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := NewHeap(wideLess)
	var keys []float64
	live := map[uint64]wide{}
	id := uint64(0)
	add := func() wide {
		w := newWide(float64(rng.Intn(6)), id)
		id++
		live[w.id] = w
		keys = append(keys, w.key)
		sort.Float64s(keys)
		return w
	}
	for op := 0; op < 6000; op++ {
		switch r := rng.Intn(4); {
		case r < 2 || len(live) == 0:
			h.Push(add())
		case r == 2:
			checkWide(t, op, h.Pop(), &keys, live)
		default:
			top := h.Peek()
			w := add()
			if got := h.ReplaceTop(w); got != top {
				t.Fatalf("op %d: ReplaceTop returned %+v, Peek was %+v", op, got, top)
			}
			// The reference min may be the element just added; retire
			// the returned one by its own key.
			i := sort.SearchFloat64s(keys, top.key)
			keys = append(keys[:i], keys[i+1:]...)
			if live[top.id] != top {
				t.Fatalf("op %d: replaced top %d corrupted", op, top.id)
			}
			delete(live, top.id)
		}
		if h.Len() != len(keys) {
			t.Fatalf("op %d: Len %d, reference %d", op, h.Len(), len(keys))
		}
	}
	for op := 0; !h.Empty(); op++ {
		checkWide(t, op, h.Pop(), &keys, live)
	}
	if len(live) != 0 {
		t.Fatalf("%d elements never dequeued", len(live))
	}
}

// TestHeapWidePushPopNoAllocs pins that ordering a wide element costs
// no allocation: the element a sift places must not escape to the heap.
func TestHeapWidePushPopNoAllocs(t *testing.T) {
	h := NewHeap(wideLess)
	for i := 0; i < 256; i++ {
		h.Push(newWide(float64(i%13), uint64(i)))
	}
	w := newWide(5, 1000)
	if avg := testing.AllocsPerRun(200, func() {
		h.Push(w)
		h.ReplaceTop(w)
		h.Pop()
	}); avg != 0 {
		t.Errorf("Push/ReplaceTop/Pop of a 104-byte element allocates %v per cycle, want 0", avg)
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	b.Run("float64", func(b *testing.B) {
		h := NewHeap(func(a, b *float64) bool { return *a < *b })
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Push(rng.Float64())
			if h.Len() > 1024 {
				h.Pop()
			}
		}
	})
	b.Run("pair104", func(b *testing.B) {
		h := NewHeap(wideLess)
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Push(wide{key: rng.Float64(), id: uint64(i)})
			if h.Len() > 1024 {
				h.Pop()
			}
		}
	})
}

// heapDistanceQueue is DistanceQueue as it was written on Heap[float64]
// with a max-heap comparator: the reference the bucketed queue must
// match bit for bit on offers that hold no NaN and no −0.
type heapDistanceQueue struct {
	k    int
	heap *Heap[float64]
}

func newHeapDistanceQueue(k int) *heapDistanceQueue {
	return &heapDistanceQueue{k: k, heap: NewHeap(func(a, b *float64) bool { return *a > *b })}
}

func (q *heapDistanceQueue) Insert(d float64) bool {
	if q.heap.Len() < q.k {
		q.heap.Push(d)
		return true
	}
	if d < q.heap.Peek() {
		q.heap.ReplaceTop(d)
		return true
	}
	return false
}

func (q *heapDistanceQueue) Cutoff() float64 {
	if q.heap.Len() < q.k {
		return math.Inf(1)
	}
	return q.heap.Peek()
}

// referenceOffer reports whether d is an offer on which DistanceQueue must
// match the reference: anything but NaN, which it rejects, and −0, which
// it holds as +0 (TestDistanceQueueNaNAndNegativeZero pins both).
func referenceOffer(d float64) bool {
	return d == d && math.Float64bits(d) != math.Float64bits(math.Copysign(0, -1))
}

// TestDistanceQueueMatchesHeapReference: over random offer sequences
// rich in duplicates, ±Inf, zeros and negatives, the bucketed
// DistanceQueue keeps exactly what the Heap-based one kept, offer by
// offer: the same Insert result and the same Cutoff bits, so a join's
// pruning sequence cannot tell the two apart. Trials cycle through four
// shapes: a mix of specials, duplicates, offers just under the cutoff
// and uniform ones; five signed values only, so negative offers (which
// no join makes) keep replacing a top of 0 and every bucket meets ties;
// join-shaped offers uniform below the cutoff, long enough to lay the
// buckets out many times; and offers rising and falling by powers of
// two, so layouts meet a range that spans most exponents.
func TestDistanceQueueMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	special := []float64{math.Inf(1), math.Inf(-1), 0}
	signed := []float64{-2, -1, 0, 1, math.Inf(-1)}
	for _, k := range []int{1, 2, 7, 9, 1000} {
		for trial := 0; trial < 20; trial++ {
			got, want := NewDistanceQueue(k), newHeapDistanceQueue(k)
			n := 3*k + rng.Intn(200)
			if trial%4 == 2 {
				n = 20*k + rng.Intn(200)
			}
			for i := 0; i < n; i++ {
				var d float64
				switch r := rng.Intn(20); {
				case trial%4 == 1:
					d = signed[rng.Intn(len(signed))]
				case trial%4 == 2:
					d = math.Min(want.Cutoff(), 10) * rng.Float64()
				case trial%4 == 3:
					d = math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000)
				case r == 0:
					d = special[rng.Intn(len(special))]
				case r < 8:
					d = float64(rng.Intn(8)) // duplicates
				case r < 12:
					d = want.Cutoff() * (1 - 0.01*rng.Float64()) // accepted, as in a join
				default:
					d = rng.Float64() * 10
				}
				g, w := got.Insert(d), want.Insert(d)
				if g != w {
					t.Fatalf("k=%d trial %d offer %d (%g): Insert = %v, reference %v", k, trial, i, d, g, w)
				}
				if gc, wc := got.Cutoff(), want.Cutoff(); math.Float64bits(gc) != math.Float64bits(wc) {
					t.Fatalf("k=%d trial %d offer %d (%g): Cutoff = %g (%#x), reference %g (%#x)",
						k, trial, i, d, gc, math.Float64bits(gc), wc, math.Float64bits(wc))
				}
			}
			if got.Len() != want.heap.Len() {
				t.Fatalf("k=%d trial %d: Len = %d, reference %d", k, trial, got.Len(), want.heap.Len())
			}
			got.Release()
		}
	}
}

// TestDistanceQueueNaNAndNegativeZero pins the two offers the reference
// comparison leaves out: a NaN is rejected, while filling and when full,
// and never held; a −0 is held as +0, so a cutoff of zero is +0 whichever
// zero was offered.
func TestDistanceQueueNaNAndNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	q := NewDistanceQueue(2)
	if q.Insert(math.NaN()) || q.Len() != 0 {
		t.Fatalf("a NaN offered to an empty queue: kept, Len %d", q.Len())
	}
	if !q.Insert(negZero) || q.Len() != 1 {
		t.Fatalf("−0 offered to an empty queue: not kept, Len %d", q.Len())
	}
	if q.Insert(math.NaN()) || q.Len() != 1 || !math.IsInf(q.Cutoff(), 1) {
		t.Fatalf("a NaN offered while filling: kept, Len %d, Cutoff %g", q.Len(), q.Cutoff())
	}
	q.Insert(negZero)
	if c := q.Cutoff(); math.Float64bits(c) != 0 {
		t.Fatalf("two −0 held: Cutoff %g (%#x), want +0", c, math.Float64bits(c))
	}
	if q.Insert(math.NaN()) || q.Len() != 2 {
		t.Fatalf("a NaN offered to a full queue: kept, Len %d", q.Len())
	}
	q.Insert(-1)
	q.Insert(-2)
	if c := q.Cutoff(); c != -1 {
		t.Fatalf("after −1 and −2 displaced the zeros: Cutoff %g, want −1", c)
	}
	q.Release()

	one := NewDistanceQueue(1)
	one.Insert(5)
	if !one.Insert(negZero) || math.Float64bits(one.Cutoff()) != 0 {
		t.Fatalf("−0 replacing the root of a full queue: Cutoff %g (%#x), want +0", one.Cutoff(), math.Float64bits(one.Cutoff()))
	}
	one.Release()
}

// FuzzDistanceQueue is TestDistanceQueueMatchesHeapReference over
// arbitrary offer sequences: after every offer, Insert's result and the
// Cutoff bits equal the Heap-based queue's. k is 1 + k16 mod 1024. raw
// is read offer by offer: a byte below len(fuzzOffers) offers that
// table's value, so ties, zeros and ±Inf come often; any other byte is
// followed by the eight bytes of the offer itself (little endian),
// whatever they hold. NaN and −0 offers are skipped: the queue rejects
// the one and holds the other as +0, which the reference does not.
func FuzzDistanceQueue(f *testing.F) {
	le := binary.LittleEndian
	raw := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = le.AppendUint64(append(b, 0xff), math.Float64bits(v))
		}
		return b
	}
	f.Add(uint16(0), []byte{3, 4, 2, 3, 0, 1, 5, 3, 3})
	f.Add(uint16(2), []byte{5, 3, 4, 4, 3, 6, 7, 3, 4, 8, 9, 10, 3, 11, 0, 1, 2})
	f.Add(uint16(6), []byte{10, 9, 9, 8, 11, 12, 12, 13, 3, 4, 3, 4, 5, 6, 5, 0, 2, 1, 1, 14, 15})
	f.Add(uint16(3), raw(0.5, -0.25, math.NaN(), 1e300, math.SmallestNonzeroFloat64, -math.MaxFloat64, 0.5, 0.125))
	f.Add(uint16(999), append(raw(math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001)), 3, 4, 11, 12))
	f.Add(uint16(1), raw(-math.MaxFloat64, math.MaxFloat64, 1, 0.5, math.SmallestNonzeroFloat64, 2, 0.25))
	f.Fuzz(func(t *testing.T, k16 uint16, raw []byte) {
		k := 1 + int(k16)%1024
		got, want := NewDistanceQueue(k), newHeapDistanceQueue(k)
		defer got.Release()
		for i := 0; len(raw) > 0; i++ {
			var d float64
			if c := int(raw[0]); c < len(fuzzOffers) {
				d, raw = fuzzOffers[c], raw[1:]
			} else if len(raw) >= 9 {
				d, raw = math.Float64frombits(le.Uint64(raw[1:])), raw[9:]
			} else {
				break
			}
			if !referenceOffer(d) {
				continue
			}
			if g, w := got.Insert(d), want.Insert(d); g != w {
				t.Fatalf("k=%d offer %d (%g, %#x): Insert = %v, reference %v", k, i, d, math.Float64bits(d), g, w)
			}
			if gc, wc := got.Cutoff(), want.Cutoff(); math.Float64bits(gc) != math.Float64bits(wc) {
				t.Fatalf("k=%d offer %d (%g, %#x): Cutoff = %g (%#x), reference %g (%#x)",
					k, i, d, math.Float64bits(d), gc, math.Float64bits(gc), wc, math.Float64bits(wc))
			}
		}
	})
}

// fuzzOffers are the offers FuzzDistanceQueue reads from one byte.
var fuzzOffers = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, 2, 3, -1, -2, 0.5, 0.25, math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 1e-300,
}

// TestDistanceQueueInsertAllocs: once k distances are held, an offer,
// kept or rejected, allocates nothing.
func TestDistanceQueueInsertAllocs(t *testing.T) {
	const k = 1000
	q := NewDistanceQueue(k)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < k; i++ {
		q.Insert(rng.Float64())
	}
	if avg := testing.AllocsPerRun(100, func() {
		q.Insert(q.Cutoff() * (1 - 1e-3*rng.Float64()))
		q.Insert(2)
	}); avg != 0 {
		t.Errorf("an accepted and a rejected offer allocate %v, want 0", avg)
	}
}

// TestDistanceQueueRelease: Release empties the queue and gives its
// arrays back once, however often it is called; the queue is then a
// fresh one, taking new arrays at its next Insert, and a query on a
// warm pool fills all k slots, lays its buckets out and keeps offers
// without allocating.
func TestDistanceQueueRelease(t *testing.T) {
	const k = 500
	q := NewDistanceQueue(k)
	fill := func() {
		for i := 0; i < 2*k; i++ {
			q.Insert(float64((i * 7919) % 1000))
		}
	}
	fill()
	if q.Len() != k || q.Cutoff() != 499 {
		t.Fatalf("Len %d, Cutoff %g after the first fill", q.Len(), q.Cutoff())
	}
	q.Release()
	q.Release()
	if q.Len() != 0 || !math.IsInf(q.Cutoff(), 1) || q.slab != nil || q.K() != k {
		t.Fatalf("after Release: Len %d, Cutoff %g, K %d, arrays held %v", q.Len(), q.Cutoff(), q.K(), q.slab != nil)
	}
	seen := map[*distSlab]bool{}
	var taken []*distSlab
	for i := 0; i < 16; i++ {
		s := distSlabs.Get().(*distSlab)
		if seen[s] {
			t.Fatal("arrays were given back twice")
		}
		seen[s] = true
		taken = append(taken, s)
	}
	for _, s := range taken {
		distSlabs.Put(s)
	}
	fill()
	if q.Len() != k || q.Cutoff() != 499 {
		t.Fatalf("Len %d, Cutoff %g after refilling a released queue", q.Len(), q.Cutoff())
	}
	if !raceEnabled {
		if avg := testing.AllocsPerRun(10, func() { q.Release(); fill() }); avg != 0 {
			t.Errorf("a released queue's refill allocates %v, want 0", avg)
		}
	}
	q.Release()
}

// TestKthTrackerRelease: a released tracker comes back from
// NewKthTracker empty, under its new k.
func TestKthTrackerRelease(t *testing.T) {
	tr := NewKthTracker(3)
	for _, v := range []float64{5, 1, 4, 2, 8} {
		tr.Insert(v)
	}
	tr.Delete(1)
	tr.Delete(8)
	tr.Release()
	for i := 0; i < 4; i++ {
		got := NewKthTracker(2)
		if got.Len() != 0 || !math.IsInf(got.Cutoff(), 1) {
			t.Fatalf("a tracker from the pool holds %d values, cutoff %g", got.Len(), got.Cutoff())
		}
		got.Insert(9)
		got.Insert(3)
		got.Insert(7)
		if got.Cutoff() != 7 {
			t.Fatalf("k=2 cutoff of {9,3,7} = %g, want 7", got.Cutoff())
		}
		got.Delete(3)
		if got.Cutoff() != 9 {
			t.Fatalf("after deleting 3 the cutoff is %g, want 9", got.Cutoff())
		}
		got.Release()
	}
}

// BenchmarkDistanceQueueInsert times one offer to a full queue, through
// the public API only. reject offers uniform random distances, which
// after warm-up almost never beat the cutoff: the cost of one
// comparison. accept offers Cutoff·(1−ε·u), which is always kept and
// crowds the retained distances into a band just under the cutoff: the
// cost of an offer among distances no join retains. join offers
// distances uniform in [0, Cutoff()), kept and spread over the whole
// range as a join's are (a sweep delivers pairs anywhere within the
// cutoff): the cost of a join's offer. Such offers shrink the cutoff
// towards zero, so every k offers the queue is released and refilled
// with k fresh uniform distances, untimed.
func BenchmarkDistanceQueueInsert(b *testing.B) {
	const eps = 1e-3
	for _, mode := range []string{"reject", "accept", "join"} {
		for _, k := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/k=%d", mode, k), func(b *testing.B) {
				q := NewDistanceQueue(k)
				rng := rand.New(rand.NewSource(1))
				fill := func() {
					for i := 0; i < k; i++ {
						q.Insert(rng.Float64())
					}
				}
				fill()
				b.ResetTimer()
				switch mode {
				case "reject":
					for i := 0; i < b.N; i++ {
						q.Insert(rng.Float64())
					}
				case "accept":
					for i := 0; i < b.N; i++ {
						q.Insert(q.Cutoff() * (1 - eps*rng.Float64()))
					}
				default:
					for i := 0; i < b.N; i++ {
						if i%k == k-1 {
							b.StopTimer()
							q.Release()
							fill()
							b.StartTimer()
						}
						q.Insert(q.Cutoff() * rng.Float64())
					}
				}
				b.StopTimer()
				q.Release()
			})
		}
	}
}
