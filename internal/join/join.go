// Package join implements the distance join algorithms of the paper —
// the paper's contributions B-KDJ (§3), AM-KDJ (§4.1), and AM-IDJ
// (§4.2) — together with the evaluation baselines HS-KDJ / HS-IDJ
// (Hjaltason & Samet's uni-directional incremental distance join,
// SIGMOD '98) and SJ-SORT (R-tree spatial join with a within predicate
// followed by an external sort).
//
// All algorithms operate over two packed rtree.Tree indexes, share the
// hybrid memory/disk main queue of §4.4, and account their work
// (distance computations, queue insertions, node accesses) through a
// metrics.Collector, which is how the experiments of §5 are
// reproduced.
package join

import (
	"context"
	"fmt"
	"math"

	"distjoin/internal/estimate"
	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/sweep"
	"distjoin/internal/trace"
)

// Result is one produced pair: the two object identifiers, their MBRs,
// and the distance between them. Results are produced in nondecreasing
// distance order.
type Result struct {
	LeftObj   int64
	RightObj  int64
	LeftRect  geom.Rect
	RightRect geom.Rect
	Dist      float64
}

// Ablation departs from the paper's algorithm one design choice at a
// time, for the experiments that measure what each choice is worth
// (EXPERIMENTS.md, DESIGN.md A1–A4), and plants the two bugs the
// simulation harness must prove it catches. The zero value is the
// paper's algorithm. It belongs to one query: two queries with
// different ablations may run at once on the same trees.
type Ablation struct {
	// FixedAxis sweeps every node pair along x instead of the axis the
	// sweeping index selects (§3.2; Figure 11, A1).
	FixedAxis bool
	// FixedDirection sweeps every node pair forward instead of in the
	// direction the projected intervals select (§3.3; Figure 11, A1).
	FixedDirection bool
	// AllPairs feeds the distance queue the maximum distance of every
	// queued node pair as well as the object-pair distances, retiring a
	// node pair's bound when it is expanded: Hjaltason & Samet's scheme,
	// which the paper declines (§3.1 footnote 1, A2). HS-KDJ uses it
	// regardless.
	AllPairs bool
	// Correction selects how AM-IDJ combines the Eq. 4 and Eq. 5
	// corrections of the estimated cutoff (§4.3.2, A3). Its zero value,
	// estimate.Aggressive, is the smaller of the two.
	Correction estimate.Mode
	// NoQueueModel turns off the model-based segment boundaries of the
	// hybrid main queue, leaving only overflow splits (§4.4, A4).
	NoQueueModel bool
	// PruneScale, when non-zero, scales the real-distance cutoff of
	// AM-KDJ's aggressive stage: a planted bug. Below 1 it discards child
	// pairs whose distance lies in (PruneScale·qDmax, qDmax], and since
	// the compensation stage replays only the unexamined remainder of a
	// bookkept pair, they are lost and the join returns wrong pairs.
	PruneScale float64
	// BatchTail overwrites the last distance of every batched distance
	// computation with the one before it, as a vectorized kernel that
	// handles the tail of a slice one element short would: a planted
	// bug in the distances of the sweeps' fixed-cutoff windows and of
	// an HS expansion's children.
	BatchTail bool
}

// Options configures a join execution: what a query asks for. The zero
// value is usable: it means the paper's defaults (512 KB queue memory,
// the Eq. 3 initial estimate, the paper's algorithm).
type Options struct {
	// QueueMemBytes bounds the in-memory portion of the main queue
	// (default 512 KB, the paper's setting).
	QueueMemBytes int
	// QueueStore backs spilled queue segments (default: in-memory pages
	// pooled across queries, see hybridq.Config.Store).
	QueueStore storage.Store
	// Metrics receives all counters; may be nil.
	Metrics *metrics.Collector
	// EDmax, when positive, overrides the adaptive algorithms' initial
	// estimated maximum distance; zero, a negative value or NaN means
	// "estimate with Eq. 3". Ignored by HS-KDJ, B-KDJ, and SJ-SORT.
	EDmax float64
	// BatchK is AM-IDJ's stage growth: each stage targets BatchK more
	// results than already produced (default 1024).
	BatchK int
	// Ablation departs from the paper's algorithm for experiments and
	// harness self-tests; the zero value is the paper's algorithm.
	Ablation Ablation
	// Context, when non-nil, cancels a running join: the algorithms
	// poll it between queue operations and return ctx.Err(). Nil means
	// no cancellation.
	Context context.Context
	// SelfJoin adapts the join for joining a data set with itself:
	// identity pairs (same object on both sides) are suppressed and
	// each unordered pair is produced exactly once (left ID < right
	// ID). The k closest pairs of one set are then simply the join of
	// its tree with itself.
	SelfJoin bool
	// Estimator overrides the eDmax estimator used by the adaptive
	// multi-stage algorithms. Nil selects the paper's uniform model
	// (Eq. 3-5); NewHistogramEstimator builds the non-uniform
	// alternative of §6's future work, and an estimator that knows the
	// true k-th distances is Figure 15's "real Dmax" variant.
	Estimator estimate.Estimator
	// Refiner, when non-nil, supplies the exact distance between two
	// objects given their IDs and MBRs. The joins then rank results by
	// exact distances using incremental refinement: MBR distances act
	// as lower bounds, an <object,object> pair is refined when it
	// first reaches the queue head, and is reinserted under its exact
	// distance. This is the correct generalization of the filter/
	// refinement split that §1 of the paper shows cannot be applied
	// naively to distance joins. The exact distance must never be
	// smaller than the MBR distance (true for any geometry contained
	// in its MBR); smaller return values are clamped. The refiner is
	// called from the query's goroutine only.
	Refiner func(leftObj, rightObj int64, leftRect, rightRect geom.Rect) float64
	// Trace, when non-nil, receives structured stage events for the
	// query: expansion rounds, aggressive-stage start/stop with the
	// active eDmax, compensation passes, hybrid-queue spills/reloads,
	// eDmax re-estimations, and error events. A nil tracer is a
	// zero-cost no-op, and installing one never perturbs results.
	Trace *trace.Tracer
	// QueueFaultHook, when non-nil, is handed to the hybrid main queue
	// as hybridq.Config.FaultHook: it fires at every spill (heap split
	// moving pairs to disk) and reload (segment swap-in), and a non-nil
	// return latches the queue into its failed state. It exists for
	// failure-injection testing (internal/simtest and the join fault
	// tests) — unlike QueueStore-level faults it fires even when
	// segment pages never leave their write buffers, so every logical
	// disk transition of the queue is a schedulable fault point. Nil
	// costs nothing.
	QueueFaultHook func(op hybridq.FaultOp) error
	// Registry, when non-nil, receives process-level observability for
	// the query: a live in-flight entry (algorithm, k, stage, current
	// eDmax, queue depth, elapsed) updated at a bounded rate while the
	// query runs, and — on completion — the query's latency, its
	// metrics.Collector counters, and eDmax-estimator accuracy samples,
	// aggregated per algorithm into log-bucketed histograms. A nil
	// registry is a zero-alloc no-op on the hot path, the same
	// discipline as Trace. When Registry is set but Metrics is nil, a
	// private collector is allocated so the registry still receives
	// counters.
	Registry *obsrv.Registry
	// QueryID, when non-empty, names the query's Registry entry with a
	// caller-minted request identity (the serving layer's per-request
	// ID), so live-inspector rows correlate with response headers and
	// request logs. Ignored when Registry is nil.
	QueryID string
}

// DefaultQueueMemBytes is the paper's main-queue memory setting.
const DefaultQueueMemBytes = 512 * 1024

// DefaultBatchK is AM-IDJ's default stage size.
const DefaultBatchK = 1024

// context carries the resolved execution state shared by the
// algorithms.
type execContext struct {
	left, right *rtree.Tree
	mc          *metrics.Collector
	model       estimate.Model
	est         estimate.Estimator
	queue       *hybridq.Queue
	refiner     func(leftObj, rightObj int64, leftRect, rightRect geom.Rect) float64
	opts        Options
	cancelTick  int
	ex          expander      // expansion state (scratch + collector)
	tr          *trace.Tracer // optional event sink (nil = no-op)
	rq          *obsrv.Query  // live registry handle (nil = no-op)
	algo        string        // trace label: running algorithm
	stage       string        // trace label: current stage
	// pushFn is push bound once per query: the emit of the sweeps that
	// queue without feeding a distance queue (AM-IDJ).
	pushFn func(p *hybridq.Pair) bool
	// staged is where pushCopy puts a pair its caller holds by value.
	staged hybridq.Pair
	// ct is the k-bounded joins' qDmax bookkeeping, set by
	// newCutoffTracker. Its heap is pooled; endQuery gives it back, with
	// the queue's.
	ct *cutoffTracker
	// comp is the compensation list, pooled too (keepComp).
	comp *compList
}

// expander carries the state a node expansion needs: the
// struct-of-arrays decode buffers, the sweep scratch, and the metrics
// collector the work is accounted to. Each query's execContext owns
// one, so concurrent queries never share mutable state — the one thing
// they do share, a tree's finished nodes (pairSide.sorted), is read-only.
// All scratch is reused across expansions, so a warm expander expands
// nodes without allocating.
type expander struct {
	c          *execContext
	mc         *metrics.Collector
	soaL, soaR rtree.NodeSoA   // reused SoA decode buffers, where the tree lends no node of its own
	sorter     sweep.SoASorter // reused sweep-order sorter (memo misses only)
	run        sweepRun        // reused sweep state, handed out by expansion
	res        *restrictedCols // pooled restricted columns (see expander.restrict); nil until first used
	batchTail  bool            // the query's Ablation.BatchTail (see hsExpand and sweepRun.window)
}

// newContext validates inputs and builds the shared state.
func newContext(left, right *rtree.Tree, opts Options) (*execContext, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("join: both trees are required")
	}
	mem := opts.QueueMemBytes
	if mem <= 0 {
		mem = DefaultQueueMemBytes
	}
	model, err := estimate.NewModel(left.Bounds(), max(left.Size(), 1),
		right.Bounds(), max(right.Size(), 1))
	if err != nil {
		return nil, err
	}
	// When a registry is attached but no collector was supplied, run
	// with a private one so the registry still aggregates counters.
	if opts.Registry != nil && opts.Metrics == nil {
		opts.Metrics = &metrics.Collector{}
	}
	ctx := &execContext{
		left:    left,
		right:   right,
		mc:      opts.Metrics,
		model:   model,
		est:     opts.Estimator,
		refiner: opts.Refiner,
		opts:    opts,
		tr:      opts.Trace,
	}
	if ctx.est == nil {
		ctx.est = model
	}
	ctx.ex = expander{c: ctx, mc: opts.Metrics, batchTail: opts.Ablation.BatchTail}
	ctx.pushFn = ctx.push
	rho := model.Rho()
	if opts.Ablation.NoQueueModel {
		rho = 0
	}
	ctx.queue = hybridq.New(hybridq.Config{
		MemBytes:  mem,
		Rho:       rho,
		Store:     opts.QueueStore,
		Metrics:   opts.Metrics,
		Trace:     opts.Trace,
		FaultHook: opts.QueueFaultHook,
	})
	return ctx, nil
}

// Node/object references. Node refs embed the node's level in the high
// bits of the page ID so the algorithms can decide expansion order
// without extra node reads; object refs carry the object ID directly
// (which must therefore fit in 63 bits).
const refLevelShift = 48

func nodeRef(page storage.PageID, level int) uint64 {
	return uint64(level)<<refLevelShift | uint64(page)
}

func refPage(ref uint64) storage.PageID {
	return storage.PageID(ref & (1<<refLevelShift - 1))
}

func refLevel(ref uint64) int {
	return int(ref >> refLevelShift)
}

// rootPair returns the initial <R.root, S.root> queue element.
func (c *execContext) rootPair() hybridq.Pair {
	return hybridq.Pair{
		Dist:      c.left.Bounds().MinDist(c.right.Bounds()),
		Left:      nodeRef(c.left.Root(), c.left.Height()-1),
		Right:     nodeRef(c.right.Root(), c.right.Height()-1),
		LeftRect:  c.left.Bounds(),
		RightRect: c.right.Bounds(),
	}
}

// push enqueues a copy of *p on the main queue, counting the insertion,
// and reports whether the pair was accepted. The queue reads the pair in
// place and does not keep the pointer, so a sweep can hand it its
// scratch pair. Under SelfJoin semantics, object pairs that are
// identities or mirror duplicates are rejected here — centrally, so
// every algorithm inherits the filter. (Node pairs are never filtered:
// the mirror node pair produces the mirror object pairs, which this
// filter dedupes.)
func (c *execContext) push(p *hybridq.Pair) bool {
	if c.opts.SelfJoin && p.IsResult() && p.Left >= p.Right {
		return false
	}
	c.queue.PushFrom(p)
	c.mc.AddMainQueueInsert(1)
	c.mc.ObserveQueueLen(c.queue.Len())
	return true
}

// pushCopy is push for a pair the caller holds by value — a popped pair
// going back, a refined pair, the root. Taking the address of such a
// local for push would move it to the heap on every loop iteration that
// declares it; staging it here does not.
func (c *execContext) pushCopy(p hybridq.Pair) bool {
	c.staged = p
	return c.push(&c.staged)
}

// refine replaces an <object,object> pair's MBR lower-bound distance
// with the refiner's exact distance (clamped to be no smaller) and
// marks it refined. The call is counted as a refinement computation.
func (c *execContext) refine(p *hybridq.Pair) hybridq.Pair {
	return c.ex.refine(p)
}

// needsRefinement reports whether a dequeued result pair must go back
// through the refiner before it may be emitted.
func (c *execContext) needsRefinement(p *hybridq.Pair) bool {
	return c.refiner != nil && !p.Refined
}

// result converts an <object,object> pair.
func pairResult(p *hybridq.Pair) Result {
	return Result{
		LeftObj:   int64(p.Left),
		RightObj:  int64(p.Right),
		LeftRect:  p.LeftRect,
		RightRect: p.RightRect,
		Dist:      p.Dist,
	}
}

// stampChildLevels rewrites an internal node's child page IDs into
// level-carrying node refs. Leaves are left alone. Every child ref fits
// a page ID: rtree.PinnedNode.Decode rejects a node whose ref does not,
// before it can be sorted or published to the sweep-order memo, so a
// finished node read in place is stamped once.
func stampChildLevels(dst *rtree.NodeSoA) {
	if dst.IsLeaf() {
		return
	}
	lvl := dst.Level - 1
	for i, r := range dst.Refs {
		dst.Refs[i] = nodeRef(storage.PageID(r), lvl)
	}
}

// maxDist computes the maximum distance between two rects, counted as
// a real distance computation.
func (e *expander) maxDist(a, b geom.Rect) float64 {
	e.mc.AddRealDist(1)
	return a.MaxDist(b)
}

// refine replaces an <object,object> pair's MBR lower-bound distance
// with the refiner's exact distance (clamped to be no smaller) and
// marks it refined, accounting the call to this expander's collector.
func (e *expander) refine(p *hybridq.Pair) hybridq.Pair {
	d := e.c.refiner(int64(p.Left), int64(p.Right), p.LeftRect, p.RightRect)
	e.mc.AddRefinement(1)
	r := *p
	if d > r.Dist {
		r.Dist = d
	}
	r.Refined = true
	return r
}

// pairLevel maps one side of a queue pair to the level recorded in
// trace events: the node level for node sides, -1 for object sides.
func pairLevel(ref uint64, isObj bool) int {
	if isObj {
		return -1
	}
	return refLevel(ref)
}

// expansionEvent builds the trace event for one node-pair expansion:
// the pair's distance and levels, the cutoff active when it was
// expanded, and how many children the expansion enqueued.
func expansionEvent(algo, stage string, p *hybridq.Pair, eDmax float64, children int64) trace.Event {
	return trace.Event{
		Kind:       trace.KindExpansion,
		Algo:       algo,
		Stage:      stage,
		EDmax:      eDmax,
		Dist:       p.Dist,
		Count:      children,
		LeftLevel:  pairLevel(p.Left, p.LeftObj),
		RightLevel: pairLevel(p.Right, p.RightObj),
	}
}

// traceExpansion emits an expansion event for p.
func (c *execContext) traceExpansion(p *hybridq.Pair, eDmax float64, children int64) {
	if !c.tr.Enabled() {
		return
	}
	c.tr.Emit(expansionEvent(c.algo, c.stage, p, eDmax, children))
}

// traceStage emits a stage_start or stage_end event carrying the
// currently active eDmax and a result/queue count, and mirrors the
// stage transition to the live registry entry.
func (c *execContext) traceStage(kind trace.Kind, stage string, eDmax float64, count int64) {
	c.stage = stage
	c.rq.SetStage(stage)
	c.rq.SetEDmax(eDmax)
	if !c.tr.Enabled() {
		return
	}
	c.tr.Emit(trace.Event{Kind: kind, Algo: c.algo, Stage: stage, EDmax: eDmax, Count: count})
}

// traceEDmax emits an edmax_update event when the cutoff strictly
// tightens (old > new), recording both values, and mirrors the new
// cutoff to the live registry entry.
func (c *execContext) traceEDmax(old, new float64) {
	if !(new < old) {
		return
	}
	c.rq.SetEDmax(new)
	if !c.tr.Enabled() {
		return
	}
	c.tr.Emit(trace.Event{Kind: trace.KindEDmaxUpdate, Algo: c.algo, Stage: c.stage, EDmax: new, Dist: old})
}

// traceError records err (if non-nil) as an error event and returns it
// unchanged, so call sites can wrap their returns.
func (c *execContext) traceError(err error) error {
	if err != nil && c.tr.Enabled() {
		c.tr.Emit(trace.Event{Kind: trace.KindError, Algo: c.algo, Stage: c.stage, Err: err.Error()})
	}
	return err
}

// cancelEvery bounds how many pops happen between cancellation polls.
const cancelEvery = 256

// progressEvery bounds how many pops happen between live-registry
// queue-depth samples. A multiple/divisor relationship with
// cancelEvery is not required; the two hooks tick independently off
// the same counter.
const progressEvery = 64

// cancelled polls the configured context at a bounded rate, returning
// its error once it fires. It doubles as the live-progress heartbeat:
// every progressEvery calls it samples the main queue's depth into
// the registry entry. With neither a context nor a registry attached
// it stays a branch-and-increment no-op.
func (c *execContext) cancelled() error {
	if c.opts.Context == nil && c.rq == nil {
		return nil
	}
	c.cancelTick++
	if c.rq != nil && c.cancelTick%progressEvery == 0 {
		mem, disk, segs := c.queue.Depth()
		c.rq.SetQueueDepth(mem, disk, segs)
	}
	if c.opts.Context == nil || c.cancelTick%cancelEvery != 0 {
		return nil
	}
	return c.opts.Context.Err()
}

// beginQuery registers the query with the configured registry (a nil
// registry yields a nil handle; every handle method is a nil-safe
// no-op). The blocking joins call it through begin, whose closer pairs
// it with endQuery; the two incremental joins call it themselves and
// end the query in Iterator.Close.
func (c *execContext) beginQuery(k int) {
	c.rq = c.opts.Registry.BeginNamed(c.algo, k, c.opts.QueryID)
}

// endQuery completes the registry entry, folding in the final counters
// and the error outcome, and gives back everything the query took from
// a pool: the main queue's heap array and scratch (whatever the queue
// still holds is dropped), the distance queue's heap, AM-KDJ's
// compensation list and the sweeps' restricted columns. It is the one
// place a query returns pooled memory, on every path: finished, failed
// or cancelled. Idempotent: safe to call from both an iterator's
// terminal paths and its Close.
func (c *execContext) endQuery(err error) {
	c.rq.End(c.mc, err)
	c.queue.Release()
	if c.ct != nil {
		c.ct.release()
		c.ct = nil
	}
	c.releaseComp()
	c.ex.releaseRestricted()
}

// recordEstimate reports one eDmax-estimator accuracy sample — the
// estimated cutoff against the realized k-th distance — to the
// registry, and remembers the correction mode on the query's collector
// so completion telemetry can report which equation last steered the
// cutoff. Both sinks are nil-safe no-ops, and mode is always one of
// the engine's constant strings, so the disabled path stays
// allocation-free.
func (c *execContext) recordEstimate(estimated, actual float64, mode string) {
	c.mc.SetEstimateMode(mode)
	c.rq.RecordEstimate(estimated, actual, mode)
}

// exhaustiveDist is a conservative upper bound on any pair distance in
// the join, used to detect AM-IDJ exhaustion.
func (c *execContext) exhaustiveDist() float64 {
	d := c.left.Bounds().MaxDist(c.right.Bounds())
	if d == 0 {
		return math.SmallestNonzeroFloat64
	}
	return d
}

// DefaultHistogramGrid is the grid dimension NewHistogramEstimator
// uses when given a non-positive value.
const DefaultHistogramGrid = 32

// NewHistogramEstimator builds the non-uniform eDmax estimator of the
// paper's §6 future work from the leaf contents of both trees: a
// g x g grid histogram over the joint bounds. Building it reads every
// leaf once (outside any query's measured node accesses), so construct
// it once per tree pair and reuse it across queries via
// Options.Estimator.
func NewHistogramEstimator(left, right *rtree.Tree, g int) (*estimate.Histogram, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("join: both trees are required")
	}
	if g <= 0 {
		g = DefaultHistogramGrid
	}
	h, err := estimate.NewHistogram(left.Bounds().Union(right.Bounds()), g)
	if err != nil {
		return nil, err
	}
	if err := left.Search(left.Bounds(), nil, func(it rtree.Item) bool {
		h.AddLeft(it.Rect)
		return true
	}); err != nil {
		return nil, err
	}
	if err := right.Search(right.Bounds(), nil, func(it rtree.Item) bool {
		h.AddRight(it.Rect)
		return true
	}); err != nil {
		return nil, err
	}
	return h, nil
}
