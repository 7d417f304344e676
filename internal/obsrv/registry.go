// Package obsrv is the process-level observability subsystem: a
// concurrency-safe Registry aggregates per-query metrics.Collector
// snapshots across every query a process runs — log-bucketed latency /
// distance-computation / queue-insertion histograms per algorithm,
// eDmax-estimator accuracy telemetry (estimated-vs-actual cutoff
// ratios, correction-equation usage), and a live table of in-flight
// queries — and an embeddable HTTP server (Handler / Serve) exposes it
// all as /metrics Prometheus text, /queries live-inspector JSON,
// /debug/vars, /debug/pprof/*, and /healthz.
//
// Where the per-query tracer of internal/trace answers "where did this
// one query spend its work", the registry answers the fleet questions
// a production service needs: what is p99 latency per algorithm, how
// often does the Eq. 3 estimate undershoot and force compensation, and
// what are the in-flight queries doing right now.
//
// # Cost model
//
// A nil *Registry — and the nil *Query handles it hands out — is a
// valid no-op sink: every method nil-checks its receiver and the hot
// progress hooks (SetEDmax, SetQueueDepth, SetStage) are atomic stores
// on a live handle, zero allocations on a nil one. This is the same
// discipline as join.Options.Trace, pinned by TestRegistryOffNoAllocs
// in internal/join.
//
// # Snapshot-then-render
//
// HTTP handlers never walk live registry state: they take a Snapshot
// (deep copies built under the registry mutex, reading in-flight
// handles only through atomics) and render from that, so a query
// finishing mid-render can never panic or tear a handler — enforced
// by the churn tests in server_test.go under -race.
package obsrv

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distjoin/internal/metrics"
)

// Correction-mode labels recorded with estimator accuracy samples.
// Initial is the closed-form Eq. 3 estimate; Arithmetic and Geometric
// name the Eq. 4 / Eq. 5 corrections; Override marks user-supplied
// cutoffs (Options.EDmax / EDmaxForK).
const (
	ModeInitial    = "initial"
	ModeArithmetic = "arithmetic"
	ModeGeometric  = "geometric"
	ModeOverride   = "override"
)

// Registry aggregates query observability process-wide. Construct
// with NewRegistry; a nil *Registry is a valid no-op sink (every
// method nil-checks), which is how library code threads an optional
// registry without call-site checks.
type Registry struct {
	start time.Time

	mu     sync.Mutex
	nextID uint64
	active map[uint64]*Query
	algos  map[string]*algoAgg
	names  []string // sorted keys of algos, maintained on insert

	// serving is the lazily created serving-layer telemetry, outside
	// r.mu so its own lock ordering stays independent of the query
	// aggregates.
	serving atomic.Pointer[ServingMetrics]
}

// algoAgg is the per-algorithm aggregate: completed-query counts, the
// summed Collector, and the distributions.
type algoAgg struct {
	queries uint64
	errors  uint64
	stats   metrics.Collector

	latency      *Histogram // query wall-clock latency, seconds
	distCalcs    *Histogram // distance computations per query
	queueInserts *Histogram // queue insertions per query

	// eDmax-estimator accuracy (paper §4.3, Eq. 3–5): the ratio
	// estimated/actual cutoff per recorded estimate, which correction
	// equation produced each estimate, and how often the estimator
	// under- vs over-shot. Compensation-pair counts ride along in
	// stats.CompQueueInserts / stats.CompensationStages.
	estRatio       *Histogram
	corrections    map[string]uint64
	underestimates uint64
	overestimates  uint64
}

// Histogram layouts. Latency spans 10µs..~3h; work counters span
// 1..~10^9 per query; the estimate ratio is centered on 1.0 with
// factor-2 resolution across [1/64, 64].
var (
	latencyBuckets = ExpBuckets(1e-5, 2, 31)
	workBuckets    = ExpBuckets(1, 4, 16)
	ratioBuckets   = ExpBuckets(1.0/64, 2, 13)
)

func newAlgoAgg() *algoAgg {
	return &algoAgg{
		latency:      NewHistogram(latencyBuckets),
		distCalcs:    NewHistogram(workBuckets),
		queueInserts: NewHistogram(workBuckets),
		estRatio:     NewHistogram(ratioBuckets),
		corrections:  make(map[string]uint64),
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:  time.Now(),
		active: make(map[uint64]*Query),
		algos:  make(map[string]*algoAgg),
	}
}

// agg returns (creating if needed) the aggregate for algo. Callers
// hold r.mu.
func (r *Registry) agg(algo string) *algoAgg {
	a := r.algos[algo]
	if a == nil {
		a = newAlgoAgg()
		r.algos[algo] = a
		i := sort.SearchStrings(r.names, algo)
		r.names = append(r.names, "")
		copy(r.names[i+1:], r.names[i:])
		r.names[i] = algo
	}
	return a
}

// Begin registers an in-flight query and returns its live handle. The
// handle's setters are safe to call from the query's goroutine while
// HTTP handlers snapshot concurrently. A nil registry returns a nil
// handle, whose methods all no-op.
func (r *Registry) Begin(algo string, k int) *Query {
	return r.BeginNamed(algo, k, "")
}

// BeginNamed is Begin with a caller-minted query ID (the serving
// layer's per-request identity) attached to the live handle, so the
// /queries inspector row, the response header, and the request log
// all correlate. An empty queryID behaves exactly like Begin.
func (r *Registry) BeginNamed(algo string, k int, queryID string) *Query {
	if r == nil {
		return nil
	}
	q := &Query{reg: r, algo: algo, k: k, queryID: queryID, started: time.Now()}
	q.edmax.Store(math.Float64bits(math.NaN()))
	r.mu.Lock()
	r.nextID++
	q.id = r.nextID
	r.active[q.id] = q
	r.mu.Unlock()
	return q
}

// Serving returns the registry's serving-layer telemetry, creating it
// on first use. A nil registry has nothing to attach to: each call
// returns a fresh ServingMetrics that counts but is never exported, so
// a server without a registry still owns one counter set.
func (r *Registry) Serving() *ServingMetrics {
	if r == nil {
		return newServingMetrics()
	}
	if sm := r.serving.Load(); sm != nil {
		return sm
	}
	sm := newServingMetrics()
	if r.serving.CompareAndSwap(nil, sm) {
		return sm
	}
	return r.serving.Load()
}

// Uptime returns how long the registry has existed.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Reset drops every completed-query aggregate and restarts the uptime
// clock, leaving in-flight queries registered (their handles stay
// valid and they fold into the fresh aggregates when they End). It
// exists for repeated-run hygiene — a shared registry (the package
// facade's DefaultRegistry, a soak driver's per-process instance) can
// be returned to a pristine state between test iterations without
// racing live queries. A nil registry no-ops, like every other method.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.start = time.Now()
	r.algos = make(map[string]*algoAgg)
	r.names = nil
}

// InFlight returns the number of currently registered queries.
func (r *Registry) InFlight() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// Query is the live handle of one in-flight query. The owning
// goroutine mutates it through atomic setters; snapshot readers load
// the same atomics, so no lock sits on the query hot path. A nil
// *Query no-ops everywhere.
type Query struct {
	reg     *Registry
	id      uint64
	algo    string
	k       int
	queryID string // serving-layer request identity, "" for direct calls
	started time.Time

	stage    atomic.Pointer[string]
	edmax    atomic.Uint64 // Float64bits; NaN = not yet estimated
	queueMem atomic.Int64
	queueDsk atomic.Int64
	queueSeg atomic.Int64
	ended    atomic.Bool
}

// SetStage publishes the query's current stage label ("aggressive",
// "compensation", ...).
func (q *Query) SetStage(stage string) {
	if q == nil {
		return
	}
	// Copy into a fresh local before taking the address: taking &stage
	// directly would make the parameter escape and allocate even on the
	// nil-receiver fast path above.
	s := stage
	q.stage.Store(&s)
}

// SetEDmax publishes the currently active estimated cutoff.
func (q *Query) SetEDmax(eDmax float64) {
	if q == nil {
		return
	}
	q.edmax.Store(math.Float64bits(eDmax))
}

// SetQueueDepth publishes the main queue's population split: pairs in
// the in-memory heap, pairs in disk segments, and the segment count.
func (q *Query) SetQueueDepth(mem, disk, segments int) {
	if q == nil {
		return
	}
	q.queueMem.Store(int64(mem))
	q.queueDsk.Store(int64(disk))
	q.queueSeg.Store(int64(segments))
}

// RecordEstimate records one eDmax-accuracy sample: the estimated
// cutoff against the actually realized k-th distance, labeled with the
// correction mode that produced the estimate (ModeInitial,
// ModeArithmetic, ModeGeometric, ModeOverride, or an estimator-defined
// label). Samples with a non-positive or non-finite actual are
// dropped — a degenerate join (all pairs at distance 0) has no
// meaningful ratio.
func (q *Query) RecordEstimate(estimated, actual float64, mode string) {
	if q == nil || q.reg == nil {
		return
	}
	if !(actual > 0) || math.IsInf(actual, 0) ||
		math.IsNaN(estimated) || math.IsInf(estimated, 0) || estimated < 0 {
		return
	}
	ratio := estimated / actual
	r := q.reg
	r.mu.Lock()
	a := r.agg(q.algo)
	a.estRatio.Observe(ratio)
	a.corrections[mode]++
	if estimated < actual {
		a.underestimates++
	} else {
		a.overestimates++
	}
	r.mu.Unlock()
}

// End deregisters the query and folds its final counters into the
// per-algorithm aggregates. Idempotent: only the first call counts, so
// iterator Close paths may call it defensively. mc may be nil (only
// the latency histogram is then fed).
func (q *Query) End(mc *metrics.Collector, err error) {
	if q == nil || q.reg == nil || !q.ended.CompareAndSwap(false, true) {
		return
	}
	elapsed := time.Since(q.started)
	r := q.reg
	r.mu.Lock()
	delete(r.active, q.id)
	a := r.agg(q.algo)
	a.queries++
	if err != nil {
		a.errors++
	}
	(&a.stats).Add(mc)
	a.latency.Observe(elapsed.Seconds())
	a.distCalcs.Observe(float64(mc.DistCalcs()))
	a.queueInserts.Observe(float64(mc.QueueInserts()))
	r.mu.Unlock()
}

// QuerySnapshot is one in-flight query as rendered by /queries.
type QuerySnapshot struct {
	ID uint64 `json:"id"`
	// QueryID is the serving layer's request identity (the
	// X-Distjoin-Query-Id response header), empty for queries run
	// outside the HTTP server.
	QueryID string `json:"query_id,omitempty"`
	Algo    string `json:"algo"`
	K       int    `json:"k"`
	Stage   string `json:"stage,omitempty"`
	// EDmax is nil until the query publishes a cutoff (and for
	// algorithms that never estimate one); pointers keep NaN out of
	// the JSON encoder.
	EDmax          *float64 `json:"edmax,omitempty"`
	QueueMem       int64    `json:"queue_mem"`
	QueueDisk      int64    `json:"queue_disk"`
	QueueSegments  int64    `json:"queue_segments"`
	ElapsedSeconds float64  `json:"elapsed_seconds"`
}

// AlgoSnapshot is one algorithm's completed-query aggregate.
type AlgoSnapshot struct {
	Algo           string            `json:"algo"`
	Queries        uint64            `json:"queries"`
	Errors         uint64            `json:"errors"`
	Stats          metrics.Collector `json:"stats"`
	Latency        HistogramSnapshot `json:"latency_seconds"`
	DistCalcs      HistogramSnapshot `json:"dist_calcs"`
	QueueInserts   HistogramSnapshot `json:"queue_inserts"`
	EstimateRatio  HistogramSnapshot `json:"edmax_estimate_ratio"`
	Corrections    map[string]uint64 `json:"edmax_corrections"`
	Underestimates uint64            `json:"edmax_underestimates"`
	Overestimates  uint64            `json:"edmax_overestimates"`
}

// Snapshot is a consistent, immutable copy of the registry: everything
// the HTTP surface renders. Handlers build one and never touch live
// state afterwards.
type Snapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	InFlight      []QuerySnapshot `json:"inflight"`
	Algos         []AlgoSnapshot  `json:"algos"`
	// Serving carries the HTTP serving layer's telemetry when one is
	// attached (Registry.Serving was called), nil otherwise.
	Serving *ServingSnapshot `json:"serving,omitempty"`
}

// Snapshot copies the registry's state. Safe on a nil registry
// (returns an empty snapshot) and safe to call concurrently with any
// number of queries beginning, progressing, and ending.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	// Serving telemetry snapshots outside r.mu: its gauge provider
	// reads the HTTP server's own state and must never run under a
	// registry lock.
	var serving *ServingSnapshot
	if sm := r.serving.Load(); sm != nil {
		ss := sm.Snapshot()
		serving = &ss
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Serving:       serving,
		UptimeSeconds: now.Sub(r.start).Seconds(),
		InFlight:      make([]QuerySnapshot, 0, len(r.active)),
		Algos:         make([]AlgoSnapshot, 0, len(r.names)),
	}
	for _, q := range r.active {
		qs := QuerySnapshot{
			ID:             q.id,
			QueryID:        q.queryID,
			Algo:           q.algo,
			K:              q.k,
			QueueMem:       q.queueMem.Load(),
			QueueDisk:      q.queueDsk.Load(),
			QueueSegments:  q.queueSeg.Load(),
			ElapsedSeconds: now.Sub(q.started).Seconds(),
		}
		if e := math.Float64frombits(q.edmax.Load()); !math.IsNaN(e) && !math.IsInf(e, 0) {
			e := e
			qs.EDmax = &e
		}
		if st := q.stage.Load(); st != nil {
			qs.Stage = *st
		}
		s.InFlight = append(s.InFlight, qs)
	}
	sort.Slice(s.InFlight, func(i, j int) bool { return s.InFlight[i].ID < s.InFlight[j].ID })
	for _, name := range r.names {
		a := r.algos[name]
		as := AlgoSnapshot{
			Algo:           name,
			Queries:        a.queries,
			Errors:         a.errors,
			Stats:          a.stats,
			Latency:        a.latency.Snapshot(),
			DistCalcs:      a.distCalcs.Snapshot(),
			QueueInserts:   a.queueInserts.Snapshot(),
			EstimateRatio:  a.estRatio.Snapshot(),
			Corrections:    make(map[string]uint64, len(a.corrections)),
			Underestimates: a.underestimates,
			Overestimates:  a.overestimates,
		}
		for m, n := range a.corrections {
			as.Corrections[m] = n
		}
		s.Algos = append(s.Algos, as)
	}
	return s
}
