package join

import (
	"sort"

	"distjoin/internal/pqueue"
	"distjoin/internal/rtree"
)

// BruteForce computes the k nearest pairs between two item sets by
// exhaustive O(|R|x|S|) scan. It is the correctness reference for the
// index-based algorithms (tests and EXPERIMENTS.md verification) and
// is only practical for small inputs.
func BruteForce(left, right []rtree.Item, k int) []Result {
	if k <= 0 || len(left) == 0 || len(right) == 0 {
		return nil
	}
	// Bounded max-heap of the k best pairs seen.
	h := pqueue.NewHeap(func(a, b *Result) bool { return a.Dist > b.Dist })
	for _, l := range left {
		for _, r := range right {
			d := l.Rect.MinDist(r.Rect)
			if h.Len() < k {
				h.Push(Result{
					LeftObj: l.Obj, RightObj: r.Obj,
					LeftRect: l.Rect, RightRect: r.Rect, Dist: d,
				})
				continue
			}
			if d < h.Peek().Dist {
				h.ReplaceTop(Result{
					LeftObj: l.Obj, RightObj: r.Obj,
					LeftRect: l.Rect, RightRect: r.Rect, Dist: d,
				})
			}
		}
	}
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.Pop()
	}
	// Deterministic order among ties.
	sort.Slice(out, func(i, j int) bool {
		//lint:allow floatcmp deterministic tie-break on bit-equal distances matches hybridq.Pair.Less
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		if out[i].LeftObj != out[j].LeftObj {
			return out[i].LeftObj < out[j].LeftObj
		}
		return out[i].RightObj < out[j].RightObj
	})
	return out
}
