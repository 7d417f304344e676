package hybridq

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/storage"
	"distjoin/internal/trace"
)

// faultQueue builds a queue whose memory budget forces disk traffic
// for a few hundred pairs.
func faultQueue(t *testing.T, hook func(FaultOp) error) *Queue {
	t.Helper()
	return New(Config{
		MemBytes:  8 * RecordSize,
		Store:     storage.NewMemStore(1024),
		FaultHook: hook,
	})
}

// TestFaultHookFires pins the hook contract: under a tight memory
// budget a push/pop workload crosses both transitions, the hook sees
// every spill and reload, and a nil-returning hook never perturbs the
// queue's ordering.
func TestFaultHookFires(t *testing.T) {
	var spills, reloads int
	q := faultQueue(t, func(op FaultOp) error {
		switch op {
		case FaultSpill:
			spills++
		case FaultReload:
			reloads++
		default:
			t.Fatalf("unknown op %v", op)
		}
		return nil
	})
	rng := rand.New(rand.NewSource(1))
	const n = 300
	for i := 0; i < n; i++ {
		q.Push(Pair{Dist: rng.Float64() * 1000, Left: uint64(i), LeftObj: true, RightObj: true})
	}
	if spills == 0 {
		t.Fatalf("no spills with an 8-record budget and %d pushes", n)
	}
	prev := -1.0
	for i := 0; i < n; i++ {
		p, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early (err=%v)", i, q.Err())
		}
		if p.Dist < prev {
			t.Fatalf("pop %d: dist %g < previous %g", i, p.Dist, prev)
		}
		prev = p.Dist
	}
	if reloads == 0 {
		t.Fatal("no reloads after draining a spilled queue")
	}
	if err := q.Err(); err != nil {
		t.Fatalf("clean run latched error: %v", err)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop beyond exhaustion succeeded")
	}
}

// TestOpeningPushIsASpill: a push beyond the in-memory bound that opens
// a disk segment is a spill, as a heap split is. The heap here never
// overflows, so every segment was opened by a push: each opening fired
// the hook once and emitted one queue_spill event of one pair starting
// at the segment's lower bound. A refused opening latches the queue and
// leaves no segment and no spilled pair behind.
func TestOpeningPushIsASpill(t *testing.T) {
	sentinel := errors.New("injected opening fault")
	for _, refuse := range []bool{false, true} {
		spills := 0
		tr := trace.New(256)
		q := New(Config{
			MemBytes: 1000 * RecordSize,
			Rho:      0.5, // the first model boundary is sqrt(500)
			Store:    storage.NewMemStore(1024),
			Trace:    tr,
			FaultHook: func(op FaultOp) error {
				if op != FaultSpill {
					return nil
				}
				spills++
				if refuse {
					return sentinel
				}
				return nil
			},
		})
		for i := 0; i < 200; i++ {
			q.Push(pairWithDist(float64(i), uint64(i)))
		}
		if refuse {
			if !errors.Is(q.Err(), sentinel) || spills != 1 || q.Segments() != 0 || q.diskPairs != 0 {
				t.Fatalf("refused opening: err %v, %d spills, %d segments, %d pairs on disk", q.Err(), spills, q.Segments(), q.diskPairs)
			}
			continue
		}
		if q.Segments() < 2 || q.MemLen() == 200 {
			t.Fatalf("%d segments, %d pairs in memory: the pushes opened too few segments to tell", q.Segments(), q.MemLen())
		}
		if spills != q.Segments() || tr.CountKind(trace.KindQueueSpill) != spills {
			t.Fatalf("%d segments opened, %d spill faults, %d queue_spill events", q.Segments(), spills, tr.CountKind(trace.KindQueueSpill))
		}
		i := 0
		for _, ev := range tr.Events() {
			//lint:allow floatcmp a segment's lower bound is copied into its event, bit for bit
			if ev.Count != 1 || ev.Dist != q.segs[i].lo {
				t.Fatalf("spill event %d: count %d at %g, segment starts at %g", i, ev.Count, ev.Dist, q.segs[i].lo)
			}
			i++
		}
	}
}

// TestFaultHookOpString pins the schedule-name rendering.
func TestFaultHookOpString(t *testing.T) {
	if FaultSpill.String() != "spill" || FaultReload.String() != "reload" {
		t.Fatalf("op names: %v %v", FaultSpill, FaultReload)
	}
	if FaultOp(99).String() == "" {
		t.Fatal("unknown op renders empty")
	}
}

// TestFaultHookErrorLatches drives the hook through every transition
// index in turn and proves fail-closed behavior at each: the hook's
// error latches the queue (Err reports it, wrapped), and all further
// operations are no-ops rather than panics or silent corruption.
func TestFaultHookErrorLatches(t *testing.T) {
	sentinel := errors.New("injected transition fault")
	for _, op := range []FaultOp{FaultSpill, FaultReload} {
		for point := 0; ; point++ {
			var seen int
			fired := false
			q := faultQueue(t, func(got FaultOp) error {
				if got != op {
					return nil
				}
				i := seen
				seen++
				if i == point {
					fired = true
					return fmt.Errorf("%s at %d: %w", got, i, sentinel)
				}
				return nil
			})
			rng := rand.New(rand.NewSource(7))
			const n = 200
			for i := 0; i < n; i++ {
				q.Push(Pair{Dist: rng.Float64() * 1000, Left: uint64(i), LeftObj: true, RightObj: true})
			}
			for i := 0; i < n; i++ {
				if _, ok := q.Pop(); !ok {
					break
				}
			}
			if !fired {
				if point == 0 {
					t.Fatalf("%s: workload never reached transition 0", op)
				}
				break // explored every reachable point for this op
			}
			err := q.Err()
			if !errors.Is(err, sentinel) {
				t.Fatalf("%s point %d: Err() = %v, want wrapped sentinel", op, point, err)
			}
			// Latched: every subsequent operation is a no-op.
			q.Push(Pair{Dist: 1, LeftObj: true, RightObj: true})
			if _, ok := q.Pop(); ok {
				t.Fatalf("%s point %d: Pop succeeded after latched failure", op, point)
			}
			if !errors.Is(q.Err(), sentinel) {
				t.Fatalf("%s point %d: error not sticky", op, point)
			}
		}
	}
}

// TestFaultedQueueRelease: a queue latched by an injected spill or
// reload fault gives its scratch back whole and keeps no way to reach
// it — no scratch, no segment, no heap content — so the scratch's next
// owner cannot be disturbed by the failed queue, which stays a no-op.
func TestFaultedQueueRelease(t *testing.T) {
	sentinel := errors.New("injected transition fault")
	for _, op := range []FaultOp{FaultSpill, FaultReload} {
		q := faultQueue(t, func(got FaultOp) error {
			if got == op {
				return sentinel
			}
			return nil
		})
		rng := rand.New(rand.NewSource(3))
		const n = 200
		for i := 0; i < n; i++ {
			q.Push(pairWithDist(rng.Float64()*1000, uint64(i)))
		}
		for i := 0; i < n; i++ {
			if _, ok := q.Pop(); !ok {
				break
			}
		}
		if !errors.Is(q.Err(), sentinel) {
			t.Fatalf("%s: Err() = %v, want the injected fault", op, q.Err())
		}
		q.Release()
		if q.sc != nil || len(q.segs) != 0 || q.MemLen() != 0 || q.Len() != 0 {
			t.Fatalf("%s: released failed queue still reaches scratch=%v segs=%d mem=%d len=%d",
				op, q.sc != nil, len(q.segs), q.MemLen(), q.Len())
		}
		q.Push(pairWithDist(1, 1))
		if q.sc != nil || q.Len() != 0 || !errors.Is(q.Err(), sentinel) {
			t.Fatalf("%s: failed queue came back to life after Release", op)
		}

		// The next owner of whatever the failed queue gave back.
		next := faultQueue(t, nil)
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = rng.Float64() * 1000
		}
		out := pushPopCycle(next, dists, nil)
		if len(out) != n || !sort.Float64sAreSorted(out) {
			t.Fatalf("%s: queue after a failed one popped %d of %d pairs, sorted=%v",
				op, len(out), n, sort.Float64sAreSorted(out))
		}
		next.Release()
	}
}
