package join

import (
	"sync"

	"distjoin/internal/hybridq"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/sweep"
	"distjoin/internal/trace"
)

// pairKey identifies a node pair for compensation bookkeeping.
type pairKey [2]uint64

func keyOf(p *hybridq.Pair) pairKey { return pairKey{p.Left, p.Right} }

// compInfo is one compensation entry: the expanded pair, the sweep plan
// used (so a later stage reproduces the exact stage-one order), and the
// fixed axis cutoff the pair was last examined under, from which that
// stage re-derives every anchor's examined prefix (sweepRun.resume).
// For AM-IDJ the cutoff is also the real-distance cutoff of that
// examination, the floor of the band a re-expansion recovers. A retired
// entry has nothing left to examine; the next re-seed drops it.
type compInfo struct {
	pair       hybridq.Pair
	plan       sweep.Plan
	examCutoff float64
	retired    bool
}

// compList is the compensation list of both adaptive joins: one
// compInfo per bookkept expansion, in bookkeeping order, and at, the
// index of the entries the current stage re-seeded (compensate). A stage
// pops no other entry: a pair bookkept in it was just expanded, and its
// parent's re-expansions push only children never pushed before. A
// query takes a list from compLists at its first bookkept expansion and
// endQuery gives it back; it pins nothing but its array and index,
// which keep the size of the longest list they served.
type compList struct {
	infos []compInfo
	at    map[pairKey]int32
}

var compLists = sync.Pool{New: func() any { return &compList{at: map[pairKey]int32{}} }}

// keepComp appends ci to the query's compensation list.
func (c *execContext) keepComp(ci compInfo) {
	if c.comp == nil {
		c.comp = compLists.Get().(*compList)
	}
	c.comp.infos = append(c.comp.infos, ci)
	c.mc.AddCompQueueInsert(1)
}

// bookkept returns the entry the current stage re-seeded for the node
// pair p, or nil when it re-seeded none. The entry is valid until the
// next keepComp or compensate.
func (c *execContext) bookkept(p *hybridq.Pair) *compInfo {
	if c.comp != nil {
		if i, ok := c.comp.at[keyOf(p)]; ok {
			return &c.comp.infos[i]
		}
	}
	return nil
}

// retire marks ci, an entry bookkept returned, as having nothing left
// to examine: this stage stops finding it, and the next re-seed drops it.
func (c *execContext) retire(ci *compInfo) {
	ci.retired = true
	delete(c.comp.at, keyOf(&ci.pair))
}

// compensate opens a compensation stage under the cutoff eDmax (§4.1,
// Algorithm 3; each later stage of §4.2): it re-seeds the main queue
// with the live entries of the compensation list, in bookkeeping order,
// dropping the retired ones, and indexes them for the pops that come
// back. A pair bookkept twice is found under its last entry.
func (c *execContext) compensate(eDmax float64) {
	c.mc.AddCompensationStage()
	if c.comp == nil {
		c.comp = compLists.Get().(*compList)
	}
	l := c.comp
	c.traceStage(trace.KindCompensation, "compensation", eDmax, int64(len(l.infos)))
	clear(l.at)
	live := l.infos[:0]
	for i := range l.infos {
		if ci := &l.infos[i]; !ci.retired {
			l.at[keyOf(&ci.pair)] = int32(len(live))
			live = append(live, *ci)
			c.push(&ci.pair)
		}
	}
	l.infos = live
}

// releaseComp gives the query's compensation list back to compLists.
func (c *execContext) releaseComp() {
	if c.comp == nil {
		return
	}
	c.comp.infos = c.comp.infos[:0]
	clear(c.comp.at)
	compLists.Put(c.comp)
	c.comp = nil
}

// initialEDmax is the first stage cutoff of both adaptive joins and the
// source it is reported under: a positive Options.EDmax overrides;
// zero, a negative value or NaN asks the estimator (Eq. 3) at k.
func (c *execContext) initialEDmax(k int) (float64, string) {
	if e := c.opts.EDmax; e > 0 {
		return e, obsrv.ModeOverride
	}
	return c.est.Initial(k), obsrv.ModeInitial
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
	eDmax, estMode := c.initialEDmax(k)
	// The initial estimate, kept for the accuracy sample recorded once
	// the realized k-th distance is known.
	est0 := eDmax
	c.traceStage(trace.KindStageStart, "aggressive", eDmax, 0)

	// Stage one: aggressive pruning (Algorithm 2).
	loop := bestFirst{c: c, ct: ct}
	loop.gate = func(p *hybridq.Pair) bool {
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
			c.pushCopy(*p)
			return true
		}
		return false
	}
	loop.node = func(p *hybridq.Pair) error {
		run, err := c.amAggressiveSweep(p, eDmax, ct, realCutoff)
		if err != nil {
			return err
		}
		c.bookkeep(p, run, eDmax)
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
		// The re-seeded pairs' bounds are NOT re-registered with the
		// cutoff tracker: such a pair stands only for its unexamined
		// remainder, which may be empty, so it must not act as a qDmax
		// witness (its stage-one children carry their own bounds).
		// Omitting a bound only leaves the cutoff larger: always safe.
		c.compensate(eDmax)
		loop.gate = nil
		loop.node = func(p *hybridq.Pair) error {
			ci := c.bookkept(p)
			if ci == nil {
				return c.bkdjPlaneSweep(p, ct)
			}
			c.retire(ci)
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
// the live qDmax (as in B-KDJ; realCutoff reads it). It returns the
// run, which holds what the bookkeeping of lines 19/21 needs: the plan,
// and whether the restriction emptied it. Besides the plan, the cutoff
// eDmax is all a compensation stage needs to re-derive what each anchor
// examined.
//
// An emptied expansion is not bookkept, a deliberate departure from
// Algorithm 2, which bookkeeps every one. Every entry of a side the
// restriction emptied lies farther than the real-distance cutoff then
// in force from the other side's rectangle along an axis, so every pair
// under the expanded pair is strictly farther than that cutoff, and
// every cutoff AM-KDJ holds, qDmax with or without a refiner and under
// AllPairs, is at least the final k-th distance: none of those pairs
// can be a result, ties at the k-th distance included. Compensation
// would re-fetch both nodes to find the pair empty again.
func (c *execContext) amAggressiveSweep(p *hybridq.Pair, eDmax float64, ct *cutoffTracker, realCutoff func() float64) (*sweepRun, error) {
	ct.OnRemove(p)
	run, err := c.ex.expansion(p, eDmax, realCutoff())
	if err != nil {
		return nil, c.traceError(err)
	}
	run.fixCutoff(eDmax)
	run.realCutoff = realCutoff
	run.emit = ct.pushFn
	run.run()
	c.traceExpansion(p, eDmax, run.children)
	return run, nil
}

// bookkeep appends the aggressive expansion of p under eDmax, run, to
// the compensation list, unless the restriction emptied it.
func (c *execContext) bookkeep(p *hybridq.Pair, run *sweepRun, eDmax float64) {
	if !run.emptied {
		c.keepComp(compInfo{pair: *p, plan: run.plan, examCutoff: eDmax})
	}
}

// amCompensateSweep is CompensatePlaneSweep of Algorithm 3: replay the
// stage-one sweep order and process only the child pairs the first
// stage never examined. The prefix skip is safe because the stage-one
// real-distance cutoff (qDmax) only shrinks: anything examined and
// rejected then would be rejected now, and anything accepted is
// already in the main queue. The re-seeded pair has no bound to retire:
// it was not re-registered.
func (c *execContext) amCompensateSweep(p *hybridq.Pair, ci *compInfo, ct *cutoffTracker) error {
	run, err := c.ex.expansionWithPlan(p, ci.plan, ct.Cutoff())
	if err != nil {
		return c.traceError(err)
	}
	run.resume(ci.examCutoff)
	run.liveCutoff(ct.cutoffFn)
	run.emit = ct.pushFn
	run.run()
	c.traceExpansion(p, ct.Cutoff(), run.children)
	return nil
}
