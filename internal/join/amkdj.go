package join

import (
	"distjoin/internal/hybridq"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/sweep"
	"distjoin/internal/trace"
)

// pairKey identifies a node pair for compensation bookkeeping.
type pairKey [2]uint64

func keyOf(p hybridq.Pair) pairKey { return pairKey{p.Left, p.Right} }

// rangeSlab is the range storage of one AM-KDJ query: every
// aggressive expansion carves its two range slices from the current
// chunk instead of allocating them. It is a local of the query, next to
// compList, whose compInfos are the only holders of the carved slices,
// so it lives and dies with them: nothing is pooled across queries.
// (Even a k=100 query on the benchmark data carves about 12 full
// chunks; a pool would keep that much live between queries and raise
// the collector's heap goal by twice as much, which costs a lightly
// loaded server more RSS than the allocations it saves.) Chunks start
// small, so a query that expands a handful of pairs pays for one small
// chunk, and double up to a ceiling at which the unused end of a chunk
// (less than one node's entries) is noise.
type rangeSlab struct {
	free []anchorRange // unused remainder of the current chunk
	next int           // entries in the next chunk
}

const (
	rangeSlabFirstChunk = 1 << 10 // entries; 4 KB
	rangeSlabMaxChunk   = 1 << 14 // entries; 64 KB
)

// carve returns n entries that no other carve returns. A request that
// no chunk could hold gets an allocation of its own.
func (b *rangeSlab) carve(n int) []anchorRange {
	if n > len(b.free) {
		if n > rangeSlabMaxChunk {
			return make([]anchorRange, n)
		}
		b.next = min(max(2*b.next, rangeSlabFirstChunk), rangeSlabMaxChunk)
		b.free = make([]anchorRange, max(b.next, n))
	}
	out := b.free[:n:n]
	b.free = b.free[n:]
	return out
}

// compInfo is one compensation-queue entry: the expanded pair, the
// sweep plan used (so the compensation stage reproduces the exact
// stage-one order), the per-anchor examined ranges, and — for AM-IDJ —
// the real-distance cutoff those ranges were examined under.
type compInfo struct {
	pair       hybridq.Pair
	plan       sweep.Plan
	ranges     sweepRanges
	examCutoff float64
}

// AMKDJ runs the adaptive multi-stage k-distance join of paper §4.1
// (Algorithms 2 and 3): an aggressive pruning stage cut off at the
// estimated eDmax, followed — only if needed — by a compensation stage
// that re-expands the bookkept pairs, skipping the child pairs already
// examined.
func AMKDJ(left, right *rtree.Tree, k int, opts Options) (results []Result, err error) {
	c, err := newContext(left, right, opts)
	if err != nil {
		return nil, err
	}
	if k <= 0 || c.left.Size() == 0 || c.right.Size() == 0 {
		return nil, nil
	}
	defer c.begin("AM-KDJ", "", k)(&err)

	ct := newCutoffTracker(c, k, opts.Ablation.AllPairs)
	// The aggressive stage filters real distances against qDmax, or
	// against a scaled qDmax when the query plants the pruning bug.
	realCutoff := ct.cutoffFn
	if s := opts.Ablation.PruneScale; s != 0 {
		realCutoff = func() float64 { return ct.Cutoff() * s }
	}
	eDmax := opts.EDmax
	estMode := obsrv.ModeOverride
	if eDmax <= 0 {
		eDmax = c.est.Initial(k) // Eq. 3 (or the configured estimator)
		estMode = obsrv.ModeInitial
	}
	// The initial estimate, kept for the accuracy sample recorded once
	// the realized k-th distance is known.
	est0 := eDmax
	c.traceStage(trace.KindStageStart, "aggressive", eDmax, 0)

	var compList []*compInfo
	var slab rangeSlab // backs every compInfo.ranges in compList
	compMap := make(map[pairKey]*compInfo)

	// Stage one: aggressive pruning (Algorithm 2).
	loop := bestFirst{c: c, ct: ct}
	loop.gate = func(p hybridq.Pair) bool {
		// Line 8: an overestimated eDmax is detected once qDmax drops
		// to it; from then on eDmax tracks qDmax and AM-KDJ behaves
		// exactly like B-KDJ.
		if q := ct.Cutoff(); q <= eDmax {
			c.traceEDmax(eDmax, q)
			eDmax = q
		}
		// Stage-one termination (condition 3): once the dequeued pair —
		// of ANY kind — is farther than eDmax, the aggressive stage can
		// produce nothing more that is certainly in order: pairs pruned
		// earlier all lie beyond eDmax too, but may lie closer than p,
		// so even an <object,object> p may not be emitted yet. The pair
		// is reinserted for the compensation stage.
		if p.Dist > eDmax {
			c.pushCopy(p)
			return true
		}
		return false
	}
	loop.node = func(p hybridq.Pair) error {
		ci, err := c.amAggressiveSweep(p, eDmax, ct, realCutoff, &slab)
		if err != nil {
			return err
		}
		compList = append(compList, ci)
		compMap[keyOf(p)] = ci
		c.mc.AddCompQueueInsert(1)
		return nil
	}
	ct.pushCopy(c.rootPair())
	if results, err = loop.collect(make([]Result, 0, k), k); err != nil {
		return nil, err
	}
	c.traceStage(trace.KindStageEnd, "aggressive", eDmax, int64(len(results)))

	// Stage two: compensation (Algorithm 3), needed only when the
	// aggressive stage fell short (line 12).
	if len(results) < k {
		c.mc.AddCompensationStage()
		c.traceStage(trace.KindCompensation, "compensation", eDmax, int64(len(compList)))
		// Re-seed the main queue with the bookkept pairs. Their bounds
		// are NOT re-registered with the cutoff tracker: a re-seeded
		// pair stands only for its unexamined remainder, which may be
		// empty, so it must not act as a qDmax witness (its stage-one
		// children already carry their own bounds). Omitting a bound
		// can only leave the cutoff larger, which is always safe.
		for _, ci := range compList {
			c.push(&ci.pair)
		}
		loop.gate = nil
		loop.node = func(p hybridq.Pair) error {
			key := keyOf(p)
			ci := compMap[key]
			if ci == nil {
				return c.bkdjPlaneSweep(p, ct)
			}
			delete(compMap, key)
			return c.amCompensateSweep(p, ci, ct)
		}
		if results, err = loop.collect(results, k); err != nil {
			return nil, err
		}
	}
	if len(results) == k {
		c.recordEstimate(est0, results[k-1].Dist, estMode)
	}
	return results, nil
}

// amAggressiveSweep is AggressivePlaneSweep of Algorithm 2: axis
// pruning against eDmax (line 22), real-distance filtering against
// the live qDmax (as in B-KDJ; realCutoff reads it), with per-anchor
// bookkeeping of the examined ranges (lines 19/21), which are carved
// from the query's slab.
func (c *execContext) amAggressiveSweep(p hybridq.Pair, eDmax float64, ct *cutoffTracker, realCutoff func() float64, slab *rangeSlab) (*compInfo, error) {
	ct.OnRemove(&p)
	run, err := c.ex.expansion(p, eDmax)
	if err != nil {
		return nil, c.traceError(err)
	}
	run.fixCutoff(eDmax)
	run.realCutoff = realCutoff
	run.recordInto(sweepRanges{l: slab.carve(run.L.Len()), r: slab.carve(run.R.Len())})
	run.emit = ct.pushFn
	run.run()
	c.traceExpansion(p, eDmax, run.children)
	return &compInfo{pair: p, plan: run.plan, ranges: run.out, examCutoff: eDmax}, nil
}

// amCompensateSweep is CompensatePlaneSweep of Algorithm 3: replay the
// stage-one sweep order and process only the child pairs the first
// stage never examined. The prefix skip is safe because the stage-one
// real-distance cutoff (qDmax) only shrinks: anything examined and
// rejected then would be rejected now, and anything accepted is
// already in the main queue. The re-seeded pair has no bound to retire:
// it was not re-registered.
func (c *execContext) amCompensateSweep(p hybridq.Pair, ci *compInfo, ct *cutoffTracker) error {
	run, err := c.ex.expansionWithPlan(p, ci.plan)
	if err != nil {
		return c.traceError(err)
	}
	run.prev = &ci.ranges
	run.liveCutoff(ct.cutoffFn)
	run.emit = ct.pushFn
	run.run()
	c.traceExpansion(p, ct.Cutoff(), run.children)
	return nil
}
