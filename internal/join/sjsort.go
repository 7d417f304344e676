package join

import (
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
func SJSort(left, right *rtree.Tree, k int, dmax float64, opts Options) (results []Result, err error) {
	c, err := newContext(left, right, opts)
	if err != nil {
		return nil, err
	}
	if k <= 0 || c.left.Size() == 0 || c.right.Size() == 0 {
		return nil, nil
	}
	c.algo, c.stage = "SJ-SORT", "spatial-join"
	c.beginQuery(k)
	defer func() { c.endQuery(err) }()
	c.mc.Start()
	defer c.mc.Finish()

	mem := opts.QueueMemBytes
	if mem <= 0 {
		mem = DefaultQueueMemBytes
	}
	sorter, err := extsort.NewSorter(pairCodec, hybridq.PairLess,
		extsort.Config{MemBytes: mem, Metrics: opts.Metrics, IOCost: c.ioCost})
	if err != nil {
		return nil, err
	}

	// Phase one: the spatial join. A DFS over node pairs; qualifying
	// object pairs stream into the sorter.
	stack := []hybridq.Pair{c.rootPair()}
	// The sweep lends its scratch pair for the call only; the stack and
	// the sorter each take a copy.
	emit := func(np *hybridq.Pair) bool {
		if !np.IsResult() {
			stack = append(stack, *np)
			return true
		}
		// Self-join semantics: suppress identity pairs and keep one of
		// each mirror pair — the same filter execContext.push applies for
		// the queue-driven algorithms. Pairs stream into the sorter
		// directly, so the filter must be applied here. (Caught by the
		// simtest differential oracle: the self-join workload otherwise
		// ranks <a,a> pairs at distance zero ahead of every real result.)
		if c.opts.SelfJoin && np.Left >= np.Right {
			return false
		}
		rp := *np
		if c.refiner != nil {
			rp = c.refine(rp)
			if rp.Dist > dmax {
				return false
			}
		}
		sorter.Add(rp)
		c.mc.AddMainQueueInsert(1) // counted as the baseline's queue work
		return true
	}
	for len(stack) > 0 {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.Dist > dmax {
			continue
		}
		run, err := c.ex.expansion(p, dmax)
		if err != nil {
			return nil, err
		}
		run.fixCutoff(dmax)
		run.emit = emit
		run.run()
	}
	if err := sorter.Err(); err != nil {
		return nil, err
	}

	// Phase two: external sort, then emit the first k.
	c.stage = "sort"
	c.rq.SetStage("sort")
	it, err := sorter.Sort()
	if err != nil {
		return nil, err
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
		return nil, err
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
