package simtest

import (
	"fmt"
	"sort"

	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/join"
	"distjoin/internal/metrics"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// Algorithms lists every algorithm the harness drives, in run order.
// The first entry is the paper's baseline; §4.1's equivalence claim is
// that all of them emit exactly the same k closest pairs.
var Algorithms = []string{"HS-KDJ", "B-KDJ", "AM-KDJ", "SJ-SORT", "HS-IDJ", "AM-IDJ"}

// env is one materialized scenario: the data, the packed trees, and
// the brute-force reference.
type env struct {
	s           Scenario
	left, right []rtree.Item
	lt, rt      *rtree.Tree
	ref         []join.Result // oracle: the true nearest pairs, canonical order
	kth         float64       // Dmax_k — distance of the last reference pair
}

// newEnv builds trees for s on the given stores. ref, when non-nil, is
// a precomputed oracle reference (fault exploration re-enters here per
// schedule and must not pay the O(|R|·|S|) brute force each time).
func newEnv(s Scenario, lstore, rstore storage.Store, ref []join.Result) (*env, error) {
	l, r := s.Items()
	return newEnvItems(s, l, r, lstore, rstore, ref)
}

// newEnvItems is newEnv for explicit item sets — the metamorphic
// checks feed translated and scaled copies of the scenario's data
// through here, together with the correspondingly transformed
// reference.
func newEnvItems(s Scenario, l, r []rtree.Item, lstore, rstore storage.Store, ref []join.Result) (*env, error) {
	e := &env{s: s, left: l, right: r, ref: ref}
	var err error
	if e.lt, err = buildTree(s, l, lstore); err != nil {
		return nil, fmt.Errorf("left tree: %w", err)
	}
	if e.rt, err = buildTree(s, r, rstore); err != nil {
		return nil, fmt.Errorf("right tree: %w", err)
	}
	if e.ref == nil {
		e.ref = e.brute(s.K)
	}
	if len(e.ref) > 0 {
		e.kth = e.ref[len(e.ref)-1].Dist
	}
	return e, nil
}

// buildTree packs items into a paged R-tree per the scenario's index
// knobs: an explicit fanout when set, otherwise the page-size-derived
// maximum; and a pool of BufBytes, or one sized against the packed tree
// when PoolSpare says so (the page count is only known after packing).
func buildTree(s Scenario, items []rtree.Item, store storage.Store) (*rtree.Tree, error) {
	var (
		b   *rtree.Builder
		err error
	)
	if s.Fanout > 0 {
		b, err = rtree.NewBuilder(s.Fanout)
	} else {
		b, err = rtree.NewBuilderForPageSize(store.PageSize())
	}
	if err != nil {
		return nil, err
	}
	b.BulkLoad(items)
	t, err := b.Pack(store, s.BufBytes)
	if err == nil && s.PoolSpare != 0 {
		t.ResizeBuffer(max(1, store.NumPages()+s.PoolSpare) * store.PageSize())
	}
	return t, err
}

// pairDist is the scenario's ranking metric: exact center distance for
// refined scenarios (always >= the MBR MinDist, as the refiner
// contract requires, since centers lie inside their rects), MBR
// MinDist otherwise.
func (e *env) pairDist(a, b geom.Rect) float64 {
	if e.s.Refine {
		return a.CenterDist(b)
	}
	return a.MinDist(b)
}

// refiner returns the Options.Refiner for refined scenarios, nil
// otherwise.
func (e *env) refiner() func(int64, int64, geom.Rect, geom.Rect) float64 {
	if !e.s.Refine {
		return nil
	}
	return func(_, _ int64, l, r geom.Rect) float64 { return l.CenterDist(r) }
}

// brute computes the k nearest pairs exhaustively under the scenario's
// semantics (self-join dedup, refined metric), sorted by the engine's
// canonical tie-break (distance, then left ID, then right ID; all IDs
// are non-negative so int64 and uint64 order agree).
func (e *env) brute(k int) []join.Result {
	if k <= 0 {
		return nil
	}
	all := make([]join.Result, 0, len(e.left)*len(e.right)/2)
	for _, a := range e.left {
		for _, b := range e.right {
			if e.s.SelfJoin() && a.Obj >= b.Obj {
				continue
			}
			all = append(all, join.Result{
				LeftObj: a.Obj, RightObj: b.Obj,
				LeftRect: a.Rect, RightRect: b.Rect,
				Dist: e.pairDist(a.Rect, b.Rect),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		//lint:allow floatcmp oracle tie-break mirrors the engine's bit-exact result order (hybridq.Pair.Less)
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		if all[i].LeftObj != all[j].LeftObj {
			return all[i].LeftObj < all[j].LeftObj
		}
		return all[i].RightObj < all[j].RightObj
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// options assembles the engine Options for this scenario.
//
//	qs    — main-queue store; nil spills into pooled in-memory pages
//	hook  — hybridq spill/reload fault hook; nil disables
//	reg   — observability registry; the harness attaches one per run
//	        and asserts nothing is left in flight
func (e *env) options(qs storage.Store, hook func(hybridq.FaultOp) error, reg *obsrv.Registry) join.Options {
	sp := e.s.Sweep
	o := join.Options{
		QueueMemBytes:     e.s.QueueMem,
		QueueStore:        qs,
		Sweep:             &sp,
		DistanceQueue:     e.s.DQPolicy,
		Correction:        e.s.Correction,
		BatchK:            e.s.BatchK,
		DisableQueueModel: e.s.NoQueueModel,
		SelfJoin:          e.s.SelfJoin(),
		Refiner:           e.refiner(),
		QueueFaultHook:    hook,
		Registry:          reg,
	}
	switch e.s.EDmaxMode {
	case EDmaxUnder:
		if e.kth > 0 {
			o.EDmax = e.kth * 0.25
		}
	case EDmaxOver:
		if e.kth > 0 {
			o.EDmax = e.kth * 4
		}
	}
	return o
}

// runAlgo executes one named algorithm. The incremental iterators pull
// at most limit results (they would otherwise drain the full cross
// product); their Close is always called twice, pinning idempotency on
// every path the harness touches.
func (e *env) runAlgo(name string, opts join.Options, limit int) ([]join.Result, error) {
	switch name {
	case "HS-KDJ":
		return join.HSKDJ(e.lt, e.rt, e.s.K, opts)
	case "B-KDJ":
		return join.BKDJ(e.lt, e.rt, e.s.K, opts)
	case "AM-KDJ":
		return join.AMKDJ(e.lt, e.rt, e.s.K, opts)
	case "SJ-SORT":
		// dmax plays the oracle role exactly as in the paper's §5: the
		// true k-th distance.
		return join.SJSort(e.lt, e.rt, e.s.K, e.kth, opts)
	case "HS-IDJ", "AM-IDJ":
		start := join.HSIDJ
		if name == "AM-IDJ" {
			start = join.AMIDJ
		}
		it, err := start(e.lt, e.rt, opts)
		if err != nil {
			return nil, err
		}
		defer func() { it.Close(); it.Close() }()
		return drainIter(it, limit)
	default:
		return nil, fmt.Errorf("simtest: unknown algorithm %q", name)
	}
}

// coldPools empties both trees' buffer pools, so the next run's
// physical reads do not depend on what ran before it.
func (e *env) coldPools() error {
	if err := e.lt.Pool().Invalidate(); err != nil {
		return err
	}
	return e.rt.Pool().Invalidate()
}

// runCounted is a runAlgo from cold buffer pools that also
// returns the run's deterministic counters (everything but wall time),
// so runs on differently warmed trees can be compared counter for
// counter.
func (e *env) runCounted(name string, reg *obsrv.Registry) ([]join.Result, metrics.Collector, error) {
	var mc, counters metrics.Collector
	if err := e.coldPools(); err != nil {
		return nil, counters, err
	}
	opts := e.options(nil, nil, reg)
	opts.Metrics = &mc
	got, err := e.runAlgo(name, opts, len(e.ref))
	counters.Add(&mc)
	counters.WallTime = 0
	return got, counters, err
}

// drainIter pulls up to limit results from an incremental iterator and
// verifies terminal-state stability: once Next reports !ok it must
// keep doing so.
func drainIter(it *join.Iterator, limit int) ([]join.Result, error) {
	var out []join.Result
	for len(out) < limit {
		res, ok := it.Next()
		if !ok {
			if _, again := it.Next(); again {
				return out, fmt.Errorf("simtest: iterator produced a result after reporting exhaustion")
			}
			break
		}
		out = append(out, res)
	}
	return out, it.Err()
}

// compareExact checks got against the oracle reference: same length,
// bit-identical distances, identical pair identities, and internal
// consistency (each reported distance must match the reported rects
// under the scenario metric).
func (e *env) compareExact(check, name string, got []join.Result) error {
	return e.compareExactTo(check, name, got, e.ref)
}

// compareExactTo is compareExact against an explicit expectation (a
// reference prefix for the k-monotonicity check).
//
//lint:allow floatcmp oracle comparison is bit-exact by design: the engines must reproduce the reference distances exactly
func (e *env) compareExactTo(check, name string, got, want []join.Result) error {
	if len(got) != len(want) {
		return failf(e.s, nil, check, "%s returned %d results, oracle has %d", name, len(got), len(want))
	}
	for i := range got {
		w := want[i]
		if got[i].Dist != w.Dist {
			return failf(e.s, nil, check, "%s result %d dist %.17g, oracle %.17g", name, i, got[i].Dist, w.Dist)
		}
		if got[i].LeftObj != w.LeftObj || got[i].RightObj != w.RightObj {
			return failf(e.s, nil, check, "%s result %d pair (%d,%d), oracle (%d,%d) at dist %.17g",
				name, i, got[i].LeftObj, got[i].RightObj, w.LeftObj, w.RightObj, w.Dist)
		}
		if d := e.pairDist(got[i].LeftRect, got[i].RightRect); d != got[i].Dist {
			return failf(e.s, nil, check, "%s result %d dist %.17g inconsistent with its rects (%.17g)",
				name, i, got[i].Dist, d)
		}
	}
	return nil
}
