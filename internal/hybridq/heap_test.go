package hybridq

import (
	"math/rand"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/pqueue"
)

// TestPairHeapMatchesGenericHeap: under random interleaved pushes, pops,
// peeks and clears, the key heap hands out the same full Pair sequence
// as pqueue.Heap of Pairs ordered by PairLess, and its key array stands
// for the reference's item array position by position. The input is
// seeded with pairs PairLess ranks equal (same Dist, Left and Right, one
// a node pair and one a node/object pair), which only the identical sift
// order puts out in the same order; the rectangles tell them apart, and
// they cross the key/slab split.
func TestPairHeapMatchesGenericHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		var got pairHeap
		want := pqueue.NewHeap(PairLess)
		var staged, out Pair
		next := uint64(0)
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(20); {
			case r < 11:
				p := Pair{
					Dist:     float64(rng.Intn(6)),
					Left:     uint64(rng.Intn(3)),
					Right:    uint64(rng.Intn(3)),
					LeftObj:  rng.Intn(2) == 0,
					RightObj: rng.Intn(3) == 0,
					LeftRect: geom.NewRect(float64(next), 0, float64(next)+1, 1),
				}
				next++
				// The heap copies the pair: the caller may reuse it at once.
				staged = p
				got.PushFrom(&staged)
				staged = Pair{}
				want.Push(p)
			case r < 19:
				if want.Empty() {
					continue
				}
				got.PeekInto(&out)
				if w := want.Peek(); out != w {
					t.Fatalf("trial %d op %d: Peek = %+v, reference %+v", trial, op, out, w)
				}
				got.PopInto(&out)
				if w := want.Pop(); out != w {
					t.Fatalf("trial %d op %d: Pop = %+v, reference %+v", trial, op, out, w)
				}
			default:
				got.Clear()
				want.Clear()
			}
			if got.Len() != want.Len() {
				t.Fatalf("trial %d op %d: Len = %d, reference %d", trial, op, got.Len(), want.Len())
			}
			if n := len(got.rects) - len(got.free); n != got.Len() {
				t.Fatalf("trial %d op %d: %d slab slots held by %d keys", trial, op, n, got.Len())
			}
		}
		w := want.Items()
		for i := range w {
			var g Pair
			got.load(&got.keys[i], &g)
			if g != w[i] {
				t.Fatalf("trial %d: key %d stands for %+v, reference item %+v", trial, i, g, w[i])
			}
		}
	}
}
