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
	compMap   map[pairKey]*compInfo
	compOrder []pairKey
	eDmax     float64
	stageK    int
	batchK    int
	maxd      float64
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
		compMap: make(map[pairKey]*compInfo),
		batchK:  batch,
		stageK:  batch,
		maxd:    c.exhaustiveDist(),
	}}
	it.bestFirst = bestFirst{c: c, node: it.expand, gate: it.holdBack, drained: it.advanceStage}
	it.bandFn = it.pushBand
	c.algo = "AM-IDJ"
	c.beginQuery(batch)
	if c.left.Size() == 0 || c.right.Size() == 0 {
		it.Close()
		return it, nil
	}
	if opts.EDmax > 0 {
		it.eDmax = opts.EDmax
		it.modeLabel = obsrv.ModeOverride
	} else {
		it.eDmax = c.est.Initial(batch)
		it.modeLabel = obsrv.ModeInitial
	}
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
// refined object pairs whose exact distance exceeds it, re-seeded
// compensation entries, or an initially distant root pair — wait for the
// next stage: closer pairs may still be pending compensation. (Once the
// cutoff has reached the exhaustive bound nothing is pruned anymore, so
// remaining pairs flow in queue order; this also tolerates refiners that
// exceed the MBR maximum distance in violation of their contract.)
func (it *Iterator) holdBack(p hybridq.Pair) bool {
	if !(p.Dist > it.eDmax && it.eDmax < it.maxd) {
		return false
	}
	// advanceStage re-seeds the bookkept pairs itself; everything else
	// goes back. Only a node pair can be bookkept, and a result must not
	// even be looked up: compMap is keyed by the two refs, which for a
	// leaf-level node pair are bare page IDs and for a result are object
	// IDs, both small dense integers, so a refined result could pass for
	// a bookkept leaf pair and be dropped.
	if p.IsResult() || it.compMap[keyOf(p)] == nil {
		it.c.pushCopy(p)
	}
	return true
}

// expand processes one node pair under the current stage cutoff.
// Fresh pairs get a full sweep with bookkeeping; pairs already
// expanded in an earlier stage get a band re-examination plus the
// unexamined suffix.
//
// Range storage is allocated once per bookkept pair, on its first
// expansion, and re-recorded in place by every later stage (the same
// node pair under the same plan has the same lengths), so an iterator's
// range memory follows its live compMap, not the stages it has run. A
// slab like AM-KDJ's would pin every retired pair's ranges for
// the life of the iterator, so none is used here.
func (it *Iterator) expand(p hybridq.Pair) error {
	c := it.c
	cur := it.eDmax
	key := keyOf(p)
	ci := it.compMap[key]
	if ci == nil {
		run, err := c.ex.expansion(p, cur)
		if err != nil {
			return c.traceError(err)
		}
		// Once the cutoff covers the pair's own diameter, every child
		// pair is pushed by this sweep; no compensation bookkeeping is
		// needed.
		bookkeep := cur < p.LeftRect.MaxDist(p.RightRect)
		run.fixCutoff(cur)
		if bookkeep {
			run.recordInto(run.newRanges())
		}
		run.emit = c.pushFn
		run.run()
		c.traceExpansion(p, cur, run.children)
		if bookkeep {
			it.compMap[key] = &compInfo{pair: p, plan: run.plan, ranges: run.out, examCutoff: cur}
			it.compOrder = append(it.compOrder, key)
			c.mc.AddCompQueueInsert(1)
		}
		return nil
	}

	// Re-expansion: recover the band (prev, cur] among previously
	// examined pairs, and everything <= cur in the unexamined suffix.
	run, err := c.ex.expansionWithPlan(p, ci.plan)
	if err != nil {
		return c.traceError(err)
	}
	it.bandFloor = ci.examCutoff
	run.prev = &ci.ranges
	run.recordInto(ci.ranges)
	run.fixCutoff(cur)
	run.reexamine = it.bandFn
	run.emit = c.pushFn
	run.run()
	c.traceExpansion(p, cur, run.children)
	if cur >= p.LeftRect.MaxDist(p.RightRect) {
		// Fully covered: retire the entry so later stages stop
		// re-seeding it (compOrder is compacted at the next advance).
		delete(it.compMap, key)
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
	it.c.mc.AddCompensationStage()
	if it.c.tr.Enabled() {
		it.c.tr.Emit(trace.Event{
			Kind: trace.KindCompensation, Algo: it.c.algo, Stage: "compensation",
			EDmax: next, Count: int64(len(it.compOrder)),
		})
	}
	it.c.stage = "compensation"

	// Re-seed: push every live compensation entry; entries already
	// examined at the exhaustive bound can never yield more pairs.
	liveOrder := it.compOrder[:0]
	for _, key := range it.compOrder {
		ci := it.compMap[key]
		if ci == nil {
			continue
		}
		if ci.examCutoff >= ci.pair.LeftRect.MaxDist(ci.pair.RightRect) {
			delete(it.compMap, key)
			continue
		}
		liveOrder = append(liveOrder, key)
		it.c.push(&ci.pair)
	}
	it.compOrder = liveOrder
	return true
}
