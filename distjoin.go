// Package distjoin implements spatial distance join processing over
// R*-tree indexes, reproducing "Adaptive Multi-Stage Distance Join
// Processing" (Shin, Moon, Lee — ACM SIGMOD 2000).
//
// A spatial distance join ranks pairs of objects from two data sets by
// the distance between them and returns the k nearest pairs — "find
// the k closest hotel/restaurant pairs" — either with k known up front
// (k-distance join) or incrementally with no preset bound (incremental
// distance join). This package provides:
//
//   - Index: a paged R*-tree over rectangle (MBR) objects, built in
//     memory or persisted to a file.
//   - KDistanceJoin: the k-distance join, with a choice of algorithms —
//     the paper's AM-KDJ (adaptive multi-stage, the default), B-KDJ
//     (bidirectional expansion with optimized plane sweep), the HS-KDJ
//     baseline, and the SJ-SORT spatial-join-then-sort baseline.
//   - IncrementalJoin: the incremental distance join, returning an
//     iterator (AM-IDJ by default, HS-IDJ as baseline).
//
// Quick start:
//
//	hotels, _ := distjoin.NewIndex(hotelObjs)
//	rests, _ := distjoin.NewIndex(restObjs)
//	pairs, _ := distjoin.KDistanceJoin(hotels, rests, 10, nil)
//	for _, p := range pairs {
//	    fmt.Println(p.LeftID, p.RightID, p.Dist)
//	}
package distjoin

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"unsafe"

	"distjoin/internal/estimate"
	"distjoin/internal/geom"
	"distjoin/internal/join"
	"distjoin/internal/metrics"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/trace"
)

// Rect is an axis-aligned rectangle (minimum bounding rectangle).
type Rect = geom.Rect

// Point is a location in the plane.
type Point = geom.Point

// Segment is a line segment — the exact geometry of street/river-style
// data. Index segments by Segment.Bounds() and rank joins by true
// segment distances with SegmentRefiner.
type Segment = geom.Segment

// NewRect returns the rectangle spanning the two corner coordinates.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// PointRect returns the degenerate rectangle covering exactly (x, y).
func PointRect(x, y float64) Rect { return geom.RectFromPoint(geom.Point{X: x, Y: y}) }

// Object is one spatial object: an application identifier and its MBR.
// IDs must be non-negative and fit in 48 bits, and should be unique
// within an index — self-join deduplication (SelfJoin, KClosestPairs)
// distinguishes objects by ID alone.
type Object struct {
	ID   int64
	Rect Rect
}

// Pair is one distance join result, produced in nondecreasing Dist
// order.
//
// A Pair is the engine's join.Result under the facade's field names:
// the two are one memory layout, so the facade hands the engine's
// answer over in place (asPairs) instead of copying it.
type Pair struct {
	LeftID    int64
	RightID   int64
	LeftRect  Rect
	RightRect Rect
	Dist      float64
}

// Pair and join.Result agree in size and in every field's offset; each
// of these fails to compile the day they do not. TestPairIsResult
// checks the field types.
var (
	_ [unsafe.Sizeof(Pair{})]byte             = [unsafe.Sizeof(join.Result{})]byte{}
	_ [unsafe.Offsetof(Pair{}.LeftID)]byte    = [unsafe.Offsetof(join.Result{}.LeftObj)]byte{}
	_ [unsafe.Offsetof(Pair{}.RightID)]byte   = [unsafe.Offsetof(join.Result{}.RightObj)]byte{}
	_ [unsafe.Offsetof(Pair{}.LeftRect)]byte  = [unsafe.Offsetof(join.Result{}.LeftRect)]byte{}
	_ [unsafe.Offsetof(Pair{}.RightRect)]byte = [unsafe.Offsetof(join.Result{}.RightRect)]byte{}
	_ [unsafe.Offsetof(Pair{}.Dist)]byte      = [unsafe.Offsetof(join.Result{}.Dist)]byte{}
)

// asPairs returns rs as Pairs, sharing its memory (nil for nil).
func asPairs(rs []join.Result) []Pair {
	return unsafe.Slice((*Pair)(unsafe.Pointer(unsafe.SliceData(rs))), len(rs))
}

// asPair returns *r as a Pair.
func asPair(r *join.Result) Pair { return *(*Pair)(unsafe.Pointer(r)) }

// Stats exposes the per-query performance counters of the paper's
// evaluation: distance computations, queue insertions, R-tree node
// accesses, buffer pool activity, and modeled I/O time.
type Stats = metrics.Collector

// Tracer records structured per-query stage events — node-pair
// expansions, aggressive/compensation stage transitions with the
// active eDmax, hybrid-queue spills and reloads, eDmax re-estimations,
// and errors — into a bounded ring buffer.
// Install one via Options.Trace; a nil tracer is a zero-cost no-op.
// See NewTracer and the docs/observability.md event schema.
type Tracer = trace.Tracer

// TraceEvent is one structured event recorded by a Tracer.
type TraceEvent = trace.Event

// TraceKind classifies a TraceEvent; see the constants below and the
// docs/observability.md event schema.
type TraceKind = trace.Kind

// Trace event kinds, re-exported so embedders (and the serving
// layer's ?explain=1 digest) can interpret a recorded timeline
// through the facade alone.
const (
	TraceKindExpansion    = trace.KindExpansion
	TraceKindStageStart   = trace.KindStageStart
	TraceKindStageEnd     = trace.KindStageEnd
	TraceKindCompensation = trace.KindCompensation
	TraceKindEDmaxUpdate  = trace.KindEDmaxUpdate
	TraceKindQueueSpill   = trace.KindQueueSpill
	TraceKindQueueReload  = trace.KindQueueReload
	TraceKindError        = trace.KindError
)

// DefaultTraceCapacity is the event capacity NewTracer uses when given
// a non-positive value.
const DefaultTraceCapacity = trace.DefaultCapacity

// NewTracer returns a Tracer retaining the most recent capacity events
// (capacity <= 0 selects DefaultTraceCapacity). Once full, the oldest
// events are overwritten and counted in Dropped().
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// WriteStatsJSON writes a Stats snapshot as one JSON object: every
// counter by name plus the derived totals (DistCalcs, QueueInserts,
// BufferHitRatio, ResponseTime). A nil stats writes all zeros.
func WriteStatsJSON(w io.Writer, s *Stats) error { return trace.WriteMetricsJSON(w, s) }

// WriteStatsProm writes a Stats snapshot in Prometheus text exposition
// format under the "distjoin_" namespace, suitable for a textfile
// collector or a scrape handler. A nil stats writes all zeros.
func WriteStatsProm(w io.Writer, s *Stats) error { return trace.WriteMetricsProm(w, s) }

// Registry aggregates observability process-wide: per-algorithm query
// counts, latency / distance-computation / queue-insertion histograms
// (p50/p90/p99 derivable from the log buckets), eDmax-estimator
// accuracy telemetry, and a live table of in-flight queries. Attach
// one via Options.Registry; a nil registry is a zero-cost no-op.
// Expose it over HTTP with ServeObservability or ObservabilityHandler.
type Registry = obsrv.Registry

// RegistrySnapshot is an immutable copy of a Registry's state.
type RegistrySnapshot = obsrv.Snapshot

// ServingMetrics aggregates HTTP serving-layer telemetry — per-family
// request counts and latency histograms, the admission-wait
// distribution, the ServingCounter counters, and point-in-time gauges —
// into the registry's Prometheus surface as the distjoin_serving_*
// families. Obtain one with Registry.Serving(); a nil registry hands
// out a working one that is exported nowhere.
type ServingMetrics = obsrv.ServingMetrics

// ServingCounter names one serving-layer event counter, incremented
// with ServingMetrics.Inc.
type ServingCounter = obsrv.ServingCounter

// The serving counters, re-exported so the serving layer can count
// through the facade alone.
const (
	ServingAccepted         = obsrv.ServingAccepted
	ServingShed             = obsrv.ServingShed
	ServingRejectedDraining = obsrv.ServingRejectedDraining
	ServingDeadlineExceeded = obsrv.ServingDeadlineExceeded
	ServingClientGone       = obsrv.ServingClientGone
	ServingFailed           = obsrv.ServingFailed
	ServingSlowQueries      = obsrv.ServingSlowQueries
	ServingCursorsOpened    = obsrv.ServingCursorsOpened
	ServingCursorsExpired   = obsrv.ServingCursorsExpired
)

// ServingGauges is the point-in-time serving state a gauge provider
// hands to ServingMetrics.SetGauges.
type ServingGauges = obsrv.ServingGauges

// NewRegistry returns an empty observability registry.
func NewRegistry() *Registry { return obsrv.NewRegistry() }

var (
	defaultRegistryOnce sync.Once
	defaultRegistry     *Registry
)

// DefaultRegistry returns the lazily-created process-wide registry,
// for applications that want one shared aggregation point without
// plumbing their own.
func DefaultRegistry() *Registry {
	defaultRegistryOnce.Do(func() { defaultRegistry = obsrv.NewRegistry() })
	return defaultRegistry
}

// ObservabilityHandler returns an http.Handler exposing reg:
// /metrics (Prometheus text exposition), /queries (live in-flight
// query inspector, JSON), /debug/vars (full snapshot + runtime stats,
// JSON), /debug/pprof/*, and /healthz. reg may be nil (empty views).
// Mount it on an existing mux, or use ServeObservability to run a
// standalone server.
func ObservabilityHandler(reg *Registry) http.Handler { return obsrv.Handler(reg) }

// ObservabilityServer is a running observability HTTP server started
// by ServeObservability.
type ObservabilityServer = obsrv.Server

// ServeObservability starts an HTTP server on addr (e.g. ":9090", or
// "127.0.0.1:0" for an ephemeral port — read it back with Addr())
// serving ObservabilityHandler(reg). Stop it with Shutdown (graceful:
// in-flight scrapes and queries finish before it returns) or Close
// (hard stop, dropping in-flight responses).
func ServeObservability(addr string, reg *Registry) (*ObservabilityServer, error) {
	return obsrv.Serve(addr, reg)
}

// Estimator predicts the distance of the k-th nearest pair, steering
// the adaptive multi-stage algorithms' pruning. The default is the
// paper's uniform model; NewHistogramEstimator builds the non-uniform
// alternative.
type Estimator = estimate.Estimator

// Algorithm selects a distance join algorithm.
type Algorithm int

const (
	// AMKDJ is the paper's adaptive multi-stage k-distance join
	// (§4.1); for incremental joins it selects AM-IDJ (§4.2). Default.
	AMKDJ Algorithm = iota
	// BKDJ is the single-stage bidirectional k-distance join with
	// optimized plane sweep (§3).
	BKDJ
	// HSKDJ is the Hjaltason & Samet baseline with uni-directional
	// expansion; for incremental joins it selects HS-IDJ.
	HSKDJ
	// SJSort is the spatial-join-then-sort baseline; it requires a
	// distance bound (Options.MaxDist) and is not incremental.
	SJSort
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AMKDJ:
		return "AM-KDJ"
	case BKDJ:
		return "B-KDJ"
	case HSKDJ:
		return "HS-KDJ"
	case SJSort:
		return "SJ-SORT"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// DefaultBatchK is the stage size of an incremental AM-IDJ join whose
// Options.BatchK is 0.
const DefaultBatchK = join.DefaultBatchK

// Options tunes a join query. The zero value (or a nil *Options)
// selects the paper's defaults: AM-KDJ, 512 KB of main-queue memory,
// fully optimized plane sweep.
type Options struct {
	// Algorithm selects the join algorithm.
	Algorithm Algorithm
	// QueueMemBytes bounds the in-memory portion of the main queue;
	// longer-distance pairs spill to disk segments (§4.4).
	QueueMemBytes int
	// Stats, when non-nil, receives the query's performance counters.
	Stats *Stats
	// EDmax overrides the adaptive algorithms' initial estimated
	// cutoff distance when it is positive; zero, a negative value or
	// NaN uses the Eq. 3 estimate.
	EDmax float64
	// MaxDist is the within-distance bound for SJSort (ignored by the
	// other algorithms): positive, or +Inf for no bound.
	MaxDist float64
	// BatchK sets the stage size of incremental AM-IDJ joins: each
	// stage targets BatchK more results, and every stage after the
	// first is a compensation stage. 0 selects DefaultBatchK.
	BatchK int
	// Estimator overrides the eDmax estimator used by the adaptive
	// multi-stage algorithms (AMKDJ and incremental AM-IDJ). Nil
	// selects the paper's uniform-density model (Eq. 3-5); see
	// NewHistogramEstimator for skewed data.
	Estimator Estimator
	// Context, when non-nil, cancels a running query: the algorithms
	// poll it between queue operations and abort with its error.
	Context context.Context
	// SelfJoin adapts result semantics for joining an index with
	// itself: identity pairs are suppressed and each unordered pair is
	// produced once (LeftID < RightID). KClosestPairs sets this
	// automatically.
	SelfJoin bool
	// Refiner, when non-nil, supplies the exact distance between two
	// objects (e.g. between the true geometries their MBRs bound).
	// Results are then ranked by exact distances via incremental
	// refinement: indexed MBR distances serve as lower bounds and each
	// candidate pair is refined exactly once, when it first reaches
	// the head of the priority queue. The returned distance must be at
	// least the MBR distance and at most the MBR maximum distance —
	// true for any geometry contained in its MBR. The refiner is
	// called from the query's goroutine only.
	Refiner func(left, right Object) float64
	// Trace, when non-nil, receives structured stage events for the
	// query (see Tracer). Tracing never perturbs results, and a nil
	// tracer adds no allocations to the query hot path.
	Trace *Tracer
	// Registry, when non-nil, aggregates this query into the
	// process-level observability registry: it appears in the live
	// /queries inspector while running and feeds the per-algorithm
	// latency/work histograms and eDmax-accuracy telemetry on
	// completion. A nil registry costs nothing. See NewRegistry,
	// DefaultRegistry, and ServeObservability.
	Registry *Registry
	// QueryID, when non-empty, attaches a caller-minted request
	// identity to the query's Registry entry, so the live /queries
	// inspector row correlates with whatever the caller uses to track
	// the request (the HTTP serving layer mints one per request and
	// returns it as the X-Distjoin-Query-Id header). Ignored when
	// Registry is nil.
	QueryID string
}

// joinOptions lowers Options to the internal representation.
func (o *Options) joinOptions() join.Options {
	if o == nil {
		return join.Options{}
	}
	jo := join.Options{
		QueueMemBytes: o.QueueMemBytes,
		Metrics:       o.Stats,
		EDmax:         o.EDmax,
		BatchK:        o.BatchK,
		Estimator:     o.Estimator,
		SelfJoin:      o.SelfJoin,
		Context:       o.Context,
		Trace:         o.Trace,
		Registry:      o.Registry,
		QueryID:       o.QueryID,
	}
	if o.Refiner != nil {
		refine := o.Refiner
		jo.Refiner = func(leftObj, rightObj int64, leftRect, rightRect geom.Rect) float64 {
			return refine(Object{ID: leftObj, Rect: leftRect}, Object{ID: rightObj, Rect: rightRect})
		}
	}
	return jo
}

// Index is an immutable paged R*-tree over a set of objects.
type Index struct {
	tree *rtree.Tree
}

// IndexConfig tunes index construction.
type IndexConfig struct {
	// PageSize is the on-disk node page size (default 4096, the
	// paper's setting).
	PageSize int
	// BufferBytes is the R-tree buffer pool capacity (default 512 KB,
	// the paper's setting). Capacity beyond the index's own pages is
	// not wasted: the index keeps that many bytes of its nodes decoded
	// for the joins to sweep in place (docs/memory.md, "Sweep-order
	// memo").
	BufferBytes int
}

func (c *IndexConfig) pageSize() int {
	if c == nil || c.PageSize <= 0 {
		return storage.DefaultPageSize
	}
	return c.PageSize
}

func (c *IndexConfig) bufferBytes() int {
	if c == nil || c.BufferBytes <= 0 {
		return 512 * 1024
	}
	return c.BufferBytes
}

// NewIndex bulk-loads objects into an in-memory paged R*-tree.
//
// Every rectangle must be valid: no NaN coordinate, and Min <= Max on
// both axes. A coordinate may be infinite, so a half-infinite strip, a
// point at infinity or the whole plane is an object like any other. A
// distance involving one is +Inf, or finite where the geometry makes
// it so (two points on the line x = +Inf, anything against the whole
// plane), never NaN; every join ranks such pairs exactly as brute
// force does, those at +Inf last. The same rule holds for the
// rectangles Builder.Insert and Builder.BulkReplace take.
func NewIndex(objects []Object, cfg *IndexConfig) (*Index, error) {
	return buildIndex(objects, cfg, storage.NewMemStore(cfg.pageSize()))
}

// CreateIndexFile bulk-loads objects into an R*-tree persisted at
// path; reopen it later with OpenIndexFile.
func CreateIndexFile(path string, objects []Object, cfg *IndexConfig) (*Index, error) {
	store, err := storage.CreateFileStore(path, cfg.pageSize())
	if err != nil {
		return nil, err
	}
	idx, err := buildIndex(objects, cfg, store)
	if err != nil {
		// Nothing owns the store yet: release the descriptor and do not
		// leave a partial file that OpenIndexFile would half-accept.
		store.Close()
		os.Remove(path)
		return nil, err
	}
	return idx, nil
}

// OpenIndexFile opens an index previously written by CreateIndexFile.
// Queries never write to it, so a file the process may only read (its
// mode, its owner, or a read-only mount) opens as well.
func OpenIndexFile(path string, cfg *IndexConfig) (*Index, error) {
	store, err := storage.OpenFileStore(path, cfg.pageSize())
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Open(store, cfg.bufferBytes())
	if err != nil {
		store.Close()
		return nil, err
	}
	return &Index{tree: tree}, nil
}

func buildIndex(objects []Object, cfg *IndexConfig, store storage.Store) (*Index, error) {
	builder, err := rtree.NewBuilderForPageSize(cfg.pageSize())
	if err != nil {
		return nil, err
	}
	items := make([]rtree.Item, len(objects))
	for i, o := range objects {
		if err := checkObject(o); err != nil {
			return nil, err
		}
		items[i] = rtree.Item{Rect: o.Rect, Obj: o.ID}
	}
	builder.BulkLoad(items)
	tree, err := builder.Pack(store, cfg.bufferBytes())
	if err != nil {
		return nil, err
	}
	return &Index{tree: tree}, nil
}

// checkObject rejects an object with an invalid rectangle or an ID outside [0, 2^48).
func checkObject(o Object) error {
	if !o.Rect.Valid() {
		return fmt.Errorf("distjoin: object %d has invalid rect %v", o.ID, o.Rect)
	}
	if o.ID < 0 || o.ID >= 1<<48 {
		return fmt.Errorf("distjoin: object ID %d out of range [0, 2^48)", o.ID)
	}
	return nil
}

// Len returns the number of indexed objects.
func (idx *Index) Len() int { return idx.tree.Size() }

// Bounds returns the MBR of all indexed objects.
func (idx *Index) Bounds() Rect { return idx.tree.Bounds() }

// Height returns the number of R-tree levels.
func (idx *Index) Height() int { return idx.tree.Height() }

// Search invokes fn for every object whose MBR intersects query;
// returning false stops early.
func (idx *Index) Search(query Rect, fn func(Object) bool) error {
	return idx.tree.Search(query, nil, func(it rtree.Item) bool {
		return fn(Object{ID: it.Obj, Rect: it.Rect})
	})
}

// Nearest returns the k objects nearest to query in nondecreasing
// distance order.
func (idx *Index) Nearest(query Rect, k int) ([]Object, []float64, error) {
	ns, err := idx.tree.NearestNeighbors(query, k, nil)
	if err != nil {
		return nil, nil, err
	}
	objs := make([]Object, len(ns))
	dists := make([]float64, len(ns))
	for i, n := range ns {
		objs[i] = Object{ID: n.Item.Obj, Rect: n.Item.Rect}
		dists[i] = n.Dist
	}
	return objs, dists, nil
}

// NewHistogramEstimator builds a grid-histogram eDmax estimator over
// the two indexes — the non-uniform-data strategy the paper lists as
// future work (§6). On skewed data it estimates the k-th pair distance
// far more accurately than the default uniform model, reducing the
// adaptive algorithms' compensation work. Build it once per index pair
// and reuse it via Options.Estimator. grid <= 0 selects a default.
func NewHistogramEstimator(left, right *Index, grid int) (Estimator, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("distjoin: both indexes are required")
	}
	return join.NewHistogramEstimator(left.tree, right.tree, grid)
}

// requireIndexes validates the index arguments of the public join
// entry points, returning a clear error instead of a nil-pointer panic.
func requireIndexes(op string, idxs ...*Index) error {
	for _, idx := range idxs {
		if idx == nil || idx.tree == nil {
			return fmt.Errorf("distjoin: %s requires non-nil indexes", op)
		}
	}
	return nil
}

// KDistanceJoin returns the k nearest (left, right) object pairs in
// nondecreasing distance order. Both indexes must be non-nil and k
// must be positive.
func KDistanceJoin(left, right *Index, k int, opts *Options) ([]Pair, error) {
	if err := requireIndexes("KDistanceJoin", left, right); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("distjoin: KDistanceJoin requires k > 0, got %d", k)
	}
	jo := opts.joinOptions()
	algo := AMKDJ
	if opts != nil {
		algo = opts.Algorithm
	}
	var (
		results []join.Result
		err     error
	)
	switch algo {
	case AMKDJ:
		results, err = join.AMKDJ(left.tree, right.tree, k, jo)
	case BKDJ:
		results, err = join.BKDJ(left.tree, right.tree, k, jo)
	case HSKDJ:
		results, err = join.HSKDJ(left.tree, right.tree, k, jo)
	case SJSort:
		if opts == nil || !(opts.MaxDist > 0) {
			return nil, fmt.Errorf("distjoin: SJSort requires Options.MaxDist > 0")
		}
		results, err = join.SJSort(left.tree, right.tree, k, opts.MaxDist, jo)
	default:
		return nil, fmt.Errorf("distjoin: unknown algorithm %v", algo)
	}
	if err != nil {
		return nil, err
	}
	return asPairs(results), nil
}

// Iterator produces incremental distance join results one pair at a
// time, in nondecreasing distance order.
type Iterator struct {
	it *join.Iterator
}

// Next returns the next nearest pair; ok is false when the join is
// exhausted or an error occurred (check Err).
func (it *Iterator) Next() (Pair, bool) {
	r, ok := it.it.Next()
	if !ok {
		return Pair{}, false
	}
	return asPair(&r), true
}

// Err returns the first error encountered during iteration.
func (it *Iterator) Err() error { return it.it.Err() }

// Close ends the iteration: it finalizes the query's observability
// accounting (its Options.Registry entry, if any) and releases the
// engine's queue memory for the next query, so every later Next returns
// false; Err is unaffected. It is idempotent and optional when the
// iterator is driven to exhaustion — the terminal Next call closes
// implicitly — but should be called when abandoning an iterator early,
// so the query does not linger in the live inspector.
func (it *Iterator) Close() { it.it.Close() }

// IncrementalJoin starts an incremental distance join — no stopping
// cardinality required; pull as many pairs as needed from the
// iterator. Algorithm AMKDJ selects AM-IDJ (default); HSKDJ selects
// the HS-IDJ baseline.
func IncrementalJoin(left, right *Index, opts *Options) (*Iterator, error) {
	if err := requireIndexes("IncrementalJoin", left, right); err != nil {
		return nil, err
	}
	jo := opts.joinOptions()
	algo := AMKDJ
	if opts != nil {
		algo = opts.Algorithm
	}
	start := join.AMIDJ
	switch algo {
	case AMKDJ:
	case HSKDJ:
		start = join.HSIDJ
	default:
		return nil, fmt.Errorf("distjoin: algorithm %v does not support incremental joins", algo)
	}
	it, err := start(left.tree, right.tree, jo)
	if err != nil {
		return nil, err
	}
	return &Iterator{it: it}, nil
}

// SegmentRefiner builds an exact-distance refiner for data sets whose
// objects are line segments, looked up by object ID. Pass it as
// Options.Refiner to rank join results by true segment distances
// instead of MBR distances.
func SegmentRefiner(left, right func(id int64) Segment) func(a, b Object) float64 {
	return func(a, b Object) float64 {
		return left(a.ID).DistToSegment(right(b.ID))
	}
}

// KClosestPairs returns the k closest distinct pairs of objects within
// one index — the self-join form of the distance join: identity pairs
// are excluded and each unordered pair appears once (LeftID < RightID).
func KClosestPairs(idx *Index, k int, opts *Options) ([]Pair, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.SelfJoin = true
	return KDistanceJoin(idx, idx, k, &o)
}

// WithinJoin streams every (left, right) pair within maxDist to fn in
// no particular order — the spatial join with a within predicate.
// Returning false from fn stops early.
//
// maxDist must not be NaN: a NaN threshold makes every distance
// comparison false and would otherwise silently change the result set.
// A +Inf threshold is valid and streams every pair; a negative
// threshold yields no pairs.
func WithinJoin(left, right *Index, maxDist float64, opts *Options, fn func(Pair) bool) error {
	if fn == nil {
		return fmt.Errorf("distjoin: WithinJoin requires a callback")
	}
	if err := requireIndexes("WithinJoin", left, right); err != nil {
		return err
	}
	if math.IsNaN(maxDist) {
		return fmt.Errorf("distjoin: WithinJoin maxDist must not be NaN")
	}
	return join.WithinJoin(left.tree, right.tree, maxDist, opts.joinOptions(), func(r join.Result) bool {
		return fn(asPair(&r))
	})
}
