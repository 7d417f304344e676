package join

import (
	"fmt"
	"math"

	"distjoin/internal/extsort"
	"distjoin/internal/hybridq"
	"distjoin/internal/rtree"
)

// SJSort runs the SJ-SORT baseline of §5: an R-tree spatial join with
// a within(dmax) predicate (synchronized bidirectional traversal with
// plane-sweep pruning, after Brinkhoff/Kriegel/Seeger), followed by an
// external merge sort of the qualifying pairs by distance, returning
// the first k. As in the paper, dmax plays the role of an *oracle*:
// the experiments feed it the real distance of the k-th nearest pair,
// an assumption favorable to this baseline.
//
// As for WithinJoin, dmax must not be NaN (a NaN cutoff prunes nothing
// and queues the whole cross product), and +Inf means no bound.
func SJSort(left, right *rtree.Tree, k int, dmax float64, opts Options) (results []Result, err error) {
	if math.IsNaN(dmax) {
		return nil, fmt.Errorf("join: SJSort dmax must not be NaN")
	}
	c, err := newContext(left, right, opts)
	if err != nil {
		return nil, err
	}
	if k <= 0 || c.left.Size() == 0 || c.right.Size() == 0 {
		return nil, nil
	}
	defer c.begin("SJ-SORT", "spatial-join", k)(&err)

	mem := opts.QueueMemBytes
	if mem <= 0 {
		mem = DefaultQueueMemBytes
	}
	sorter, err := extsort.NewSorter(pairCodec, hybridq.PairLess,
		extsort.Config{MemBytes: mem, Metrics: opts.Metrics})
	if err != nil {
		return nil, c.traceError(err)
	}

	// Phase one: the spatial join. Qualifying object pairs stream into
	// the sorter.
	if err := c.withinDescent(dmax, func(rp hybridq.Pair) bool {
		sorter.Add(rp)
		c.mc.AddMainQueueInsert(1) // counted as the baseline's queue work
		return true
	}); err != nil {
		return nil, err
	}
	if err := sorter.Err(); err != nil {
		return nil, c.traceError(err)
	}

	// Phase two: external sort, then emit the first k.
	c.stage = "sort"
	c.rq.SetStage("sort")
	it, err := sorter.Sort()
	if err != nil {
		return nil, c.traceError(err)
	}
	results = make([]Result, 0, k)
	for len(results) < k {
		// The sorted runs can hold every candidate pair; honour
		// cancellation while draining rather than after.
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		p, ok := it.Next()
		if !ok {
			break
		}
		results = append(results, pairResult(p))
		c.mc.AddResult(1)
	}
	if err := it.Err(); err != nil {
		return nil, c.traceError(err)
	}
	return results, nil
}

// pairCodec adapts hybridq.Pair's fixed-size encoding to the external
// sorter.
var pairCodec = extsort.Codec[hybridq.Pair]{
	Size:   hybridq.RecordSize,
	Encode: func(buf []byte, p hybridq.Pair) { p.Encode(buf) },
	Decode: hybridq.DecodePair,
}
