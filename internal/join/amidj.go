package join

import (
	"distjoin/internal/estimate"
	"distjoin/internal/hybridq"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/trace"
)

// amidjStages is the stage state of AM-IDJ (paper §4.2), embedded in
// the Iterator that runs it. Each stage prunes with a fixed estimated
// cutoff eDmax_s; when the queue drains, a compensation stage begins
// with a grown cutoff eDmax_{s+1}, re-expanding the bookkept node pairs
// and recovering exactly the pairs in the band (eDmax_s, eDmax_{s+1}].
// This continues until the caller stops asking or every pair has been
// produced.
type amidjStages struct {
	eDmax  float64
	stageK int
	batchK int
	maxd   float64
	// modeLabel names the source of the current stage cutoff for the
	// registry's eDmax-accuracy sample: "initial" (Eq. 3), "arithmetic"
	// (Eq. 4), "geometric" (Eq. 5), or "override" (the caller's EDmax).
	modeLabel string
	// bandFn is pushBand bound once, the reexamine of every band
	// re-expansion; bandFloor is the cutoff the pair being re-expanded was
	// last examined under.
	bandFn    func(p *hybridq.Pair) bool
	bandFloor float64
}

// AMIDJ starts the adaptive multi-stage incremental distance join;
// results are pulled with Next.
func AMIDJ(left, right *rtree.Tree, opts Options) (*Iterator, error) {
	c, err := newContext(left, right, opts)
	if err != nil {
		return nil, err
	}
	batch := opts.BatchK
	if batch <= 0 {
		batch = DefaultBatchK
	}
	it := &Iterator{amidjStages: amidjStages{
		batchK: batch,
		stageK: batch,
		maxd:   c.exhaustiveDist(),
	}}
	it.bestFirst = bestFirst{c: c, node: it.expand, gate: it.holdBack, drained: it.advanceStage}
	it.bandFn = it.pushBand
	c.algo = "AM-IDJ"
	c.beginQuery(batch)
	if c.left.Size() == 0 || c.right.Size() == 0 {
		it.Close()
		return it, nil
	}
	it.eDmax, it.modeLabel = c.initialEDmax(batch)
	if it.eDmax > it.maxd {
		it.eDmax = it.maxd
	}
	c.traceStage(trace.KindStageStart, "stage-1", it.eDmax, 0)
	c.pushCopy(c.rootPair())
	return it, nil
}

// EDmax returns AM-IDJ's current stage cutoff (exposed for
// experiments).
func (it *Iterator) EDmax() float64 { return it.eDmax }

// holdBack is AM-IDJ's gate. Pairs beyond the current stage cutoff —
// refined object pairs whose exact distance exceeds it, or an initially
// distant root pair — go back to the queue and wait for the next stage:
// closer pairs may still be pending compensation. A bookkept pair is
// never among them: it was expanded under a cutoff at least its
// distance, and no later stage's cutoff is smaller. (Once the
// cutoff has reached the exhaustive bound nothing is pruned anymore, so
// remaining pairs flow in queue order; this also tolerates refiners that
// exceed the MBR maximum distance in violation of their contract.)
func (it *Iterator) holdBack(p *hybridq.Pair) bool {
	if !(p.Dist > it.eDmax && it.eDmax < it.maxd) {
		return false
	}
	it.c.pushCopy(*p)
	return true
}

// expand processes one node pair under the current stage cutoff.
// Fresh pairs get a full sweep with bookkeeping; pairs already
// expanded in an earlier stage get a band re-examination plus the
// unexamined suffix.
//
// A bookkept pair's entry is appended to the compensation list on its
// first expansion and updated in place by every later stage, which
// moves only its cutoff, so a re-expansion allocates nothing.
func (it *Iterator) expand(p *hybridq.Pair) error {
	c := it.c
	cur := it.eDmax
	ci := c.bookkept(p)
	if ci == nil {
		run, err := c.ex.expansion(p, cur, cur)
		if err != nil {
			return c.traceError(err)
		}
		run.fixCutoff(cur)
		run.emit = c.pushFn
		run.run()
		c.traceExpansion(p, cur, run.children)
		// Once the cutoff covers the pair's own diameter, every child
		// pair was pushed by this sweep; no compensation bookkeeping is
		// needed. A pair the restriction emptied is bookkept all the
		// same, with the plan a sweep would have had: a later stage's
		// larger cutoff may leave both sides entries to pair. One the
		// restriction emptied carries it, chosen by expansion from these
		// same cutoffs; one the grids emptied has none, and gets it here.
		if cur < p.LeftRect.MaxDist(p.RightRect) {
			plan := run.plan
			if run.byGrid {
				plan = c.choosePlan(p, cur, cur)
			}
			c.keepComp(compInfo{pair: *p, plan: plan, examCutoff: cur})
		}
		return nil
	}

	// Re-expansion: recover the band (prev, cur] among previously
	// examined pairs, and everything <= cur in the unexamined suffix.
	run, err := c.ex.expansionWithPlan(p, ci.plan, cur)
	if err != nil {
		return c.traceError(err)
	}
	it.bandFloor = ci.examCutoff
	run.resume(ci.examCutoff)
	run.fixCutoff(cur)
	run.reexamine = it.bandFn
	run.emit = c.pushFn
	run.run()
	c.traceExpansion(p, cur, run.children)
	if cur >= p.LeftRect.MaxDist(p.RightRect) {
		// Fully covered: retire the entry so later stages stop
		// re-seeding it.
		c.retire(ci)
		return nil
	}
	ci.examCutoff = cur
	return nil
}

// pushBand is the reexamine of a band re-expansion: of the candidates
// an earlier stage already examined, only those beyond the cutoff it
// examined them under are new.
func (it *Iterator) pushBand(p *hybridq.Pair) bool {
	return p.Dist > it.bandFloor && it.c.push(p)
}

// advanceStage is AM-IDJ's drained: it grows the cutoff and re-seeds
// the queue with the compensation entries. It returns false when the
// previous stage already covered the entire distance range (join
// exhausted).
func (it *Iterator) advanceStage() bool {
	if it.eDmax >= it.maxd {
		return false
	}
	it.stageK = it.produced + it.batchK
	var next float64
	if it.produced > 0 && it.lastDist > 0 {
		mode := it.c.opts.Ablation.Correction
		next = it.c.est.Correct(mode, it.stageK, it.produced, it.lastDist)
		if it.c.rq != nil {
			// Resolve which equation won under the combined modes so the
			// registry can attribute the accuracy sample: re-evaluate the
			// pure Eq. 4 / Eq. 5 corrections and match. (Only done with a
			// registry attached; the comparison costs two extra estimator
			// calls.)
			//lint:allow floatcmp attribution re-runs the exact same pure computation, so bit-equality is the correct match; mismatch only demotes the label
			switch next {
			case it.c.est.Correct(estimate.ArithmeticOnly, it.stageK, it.produced, it.lastDist):
				it.modeLabel = obsrv.ModeArithmetic
			case it.c.est.Correct(estimate.GeometricOnly, it.stageK, it.produced, it.lastDist):
				it.modeLabel = obsrv.ModeGeometric
			default:
				it.modeLabel = mode.String()
			}
		}
	} else {
		next = it.c.est.Initial(it.stageK)
		it.modeLabel = obsrv.ModeInitial
	}
	// Guarantee strict progress toward the exhaustive bound.
	if next <= it.eDmax {
		if it.eDmax == 0 {
			next = it.maxd * 1e-9
		} else {
			next = it.eDmax * 2
		}
	}
	// Clamp, and jump straight to the bound when the growth step
	// underflowed (fully degenerate data with a subnormal bound).
	if next > it.maxd || next <= it.eDmax {
		next = it.maxd
	}
	it.c.traceStage(trace.KindStageEnd, it.c.stage, it.eDmax, int64(it.produced))
	it.eDmax = next
	it.c.compensate(next)
	return true
}
