package main

import "time"

// This file is the single definition of what the benchmark runs and
// reports. BENCHMARK.json at the repository root is generated from it
// (-print-spec) and a unit test fails when the two drift apart.

// Paper sizes x 0.1 (TIGER streets x hydrography), 4 KB pages: about
// 750 + 230 R-tree nodes, 4 MB of tree. Big enough that a k=1000 join
// runs for tens of milliseconds, small enough that set-up stays under
// a second.
const (
	streetsN    = 63346
	hydroN      = 18964
	pageSize    = 4096
	worldSeed   = 1
	sampleSlack = 100
)

// runSeconds is the measured phase of one run; BENCHMARK.json pins it.
// The warm-up before it is warmupShare of it and is discarded.
const (
	runSeconds  = 15
	warmupShare = 0.125
	// setupRepeats is how often one run sets up from scratch; setup_s
	// is the median, so one slow start (a cold build cache, a page
	// cache miss) does not decide the number.
	setupRepeats = 5
	// traceEvery keeps the full span list of every n-th traced op; the
	// rest contribute count and total time per span name only.
	traceEvery = 20
)

// opKind is one request shape of a serving workload.
type opKind int

const (
	opJoinK  opKind = iota // POST /v1/join/k
	opWithin               // POST /v1/join/within
	opCursor               // incremental open + n next + close
)

// serveOp is one entry of a serving workload's traffic mix.
type serveOp struct {
	Name    string
	Kind    opKind
	Share   float64 // share of the arrivals, in tenths (see schedule)
	K       int     // opJoinK
	MaxDist float64 // opWithin
	Limit   int     // opWithin
	Page    int     // opCursor: page size
	Nexts   int     // opCursor: next calls after the open
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string

	// Library workloads: one caller, closed loop, serial AM-KDJ through
	// the public facade.
	K             int
	QueueMemBytes int  // 0 = the engine's 512 KB default
	FileBacked    bool // CreateIndexFile + OpenIndexFile instead of NewIndex
	BufferBytes   int  // R-tree buffer pool per index

	// Serving workloads: the real distjoin-server on loopback.
	Serve bool
	Ops   []serveOp
	Rate  float64       // arrivals per second; 0 = closed loop, nproc clients
	SLO   time.Duration // an op slower than this misses the latency limit
}

// The serving mixes put each gated percentile inside one request
// shape's latency mode instead of on the boundary between two. On
// serve-open all three shapes cost 15 to 23 ms (every ranked query on
// this data first expands the zero-distance node pairs), so the mix is
// close to unimodal. On serve-bulk a k=10000 join takes about 90 ms and
// a two-page cursor drain about 300 ms; with shares 70/30 the median op
// is a join and the 90th percentile a drain. Alternating the two would
// put the median exactly where the joins end and the drains begin, and
// it would jump between the modes from run to run.
var workloads = []workload{
	{
		Name: "topk-warm",
		Why:  "CPU-bound core: k=1000 AM-KDJ, every node access hits a 64 MB pool; decode, sweep sort and kernels do the work",
		K:    1000, BufferBytes: 64 << 20,
	},
	{
		Name: "cold-io",
		Why:  "same query from reopened index files with a 16 KB pool (4 frames per tree): the difference to topk-warm is store + miss + re-decode",
		K:    1000, FileBacked: true, BufferBytes: 16 << 10,
	},
	{
		Name: "bigk-spill",
		Why:  "k=10000 with a 64 KB queue budget: hybrid-queue spill and reload dominate and one compensation stage runs per op",
		K:    10000, QueueMemBytes: 64 << 10, BufferBytes: 64 << 20,
	},
	{
		Name:  "serve-open",
		Why:   "open loop at a fixed rate against distjoin-server, small requests: admission, telemetry, logging, cursors and JSON are a visible share",
		Serve: true, Rate: 20, SLO: 100 * time.Millisecond,
		Ops: []serveOp{
			{Name: "join_k", Kind: opJoinK, Share: 0.2, K: 100},
			{Name: "within", Kind: opWithin, Share: 0.2, MaxDist: 50, Limit: 1000},
			{Name: "cursor", Kind: opCursor, Share: 0.6, Page: 256, Nexts: 4},
		},
	},
	{
		Name:  "serve-bulk",
		Why:   "closed loop, nproc clients, few large responses (k=10000 joins, 4096-pair cursor pages): rendering and writing dominate the serving share",
		Serve: true, SLO: 500 * time.Millisecond,
		Ops: []serveOp{
			{Name: "join_k", Kind: opJoinK, Share: 0.7, K: 10000},
			{Name: "cursor", Kind: opCursor, Share: 0.3, Page: 4096, Nexts: 1},
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// e2eMetric is one end-to-end metric as BENCHMARK.json lists it. Bound
// is the share of the baseline median by which it may worsen.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// hostBound marks numbers that depend on the machine's speed; the
	// comparer refuses them across different host shapes.
	hostBound bool
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// The same seven names on every workload. The issue's fail_share is
// the failed/attempted pair of the result line, and slo_miss_share is
// serving.slo_miss_share below: an end-to-end metric must be defined,
// and never zero, on every workload, and those two are zero on a
// healthy run.
//
// The bounds are sized to the spread (interquartile distance over the
// median, ten seeds) the workloads showed on the sizing host: up to
// 7.5 % on the library workloads and 9.5 % on the serving ones for the
// times, 3 % for allocation, 8 % for peak RSS. A bound is about three
// times its metric's widest spread, capped at the 25 % the contract
// allows, so that a metric within its bound is within what repeated
// runs of one commit can tell apart. They are wider than the issue
// hoped for (8 % on the latencies).
var endToEnd = []e2eMetric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, hostBound: true},
	{Name: "latency_ms_p50", Unit: "ms", Better: lower, Bound: 0.20, hostBound: true},
	{Name: "latency_ms_p90", Unit: "ms", Better: lower, Bound: 0.25, hostBound: true},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, hostBound: true},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25, hostBound: true},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: lower, Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
}

// Per-layer metrics, layer = module name. Engine layers are filled on
// the library workloads, serving/obsrv/loadgen on the serving ones;
// a metric its workload cannot observe from outside reads 0.
var perLayer = []layerMetric{
	{"storage.logical_reads_per_op", "count", lower},
	{"storage.physical_reads_per_op", "count", lower},
	{"storage.hit_ratio", "share", higher},
	{"storage.evictions_per_op", "count", lower},
	{"storage.read_ms_per_op", "ms", lower},
	{"storage.pool_hit_ns", "ns", lower},
	{"storage.pool_miss_ns", "ns", lower},
	{"storage.est_share", "share", lower},
	{"rtree.decode_ns_per_node", "ns", lower},
	{"rtree.decode_est_share", "share", lower},
	{"sweep.sort_ns_per_node", "ns", lower},
	{"sweep.sort_est_share", "share", lower},
	{"geom.kernel_ns_per_rect", "ns", lower},
	{"geom.kernel_est_share", "share", lower},
	{"join.real_dist_per_op", "count", lower},
	{"join.axis_dist_per_op", "count", lower},
	{"join.comp_stages_per_op", "count", lower},
	{"join.results_per_queue_insert", "share", higher},
	{"join.aggressive_ms_per_op", "ms", lower},
	{"join.compensation_ms_per_op", "ms", lower},
	{"join.unattributed_share", "share", lower},
	{"hybridq.inserts_per_op", "count", lower},
	{"hybridq.page_io_per_op", "count", lower},
	{"hybridq.spills_per_op", "count", lower},
	{"hybridq.reloads_per_op", "count", lower},
	{"hybridq.peak_len", "count", lower},
	{"hybridq.spill_io_ms_per_op", "ms", lower},
	{"hybridq.mem_ns_per_pair", "ns", lower},
	{"hybridq.spill_ns_per_pair", "ns", lower},
	{"hybridq.est_share", "share", lower},
	{"pqueue.distq_inserts_per_op", "count", lower},
	{"pqueue.kth_insert_ns", "ns", lower},
	{"estimate.calls_per_op", "count", lower},
	{"estimate.ms_per_op", "ms", lower},
	{"estimate.edmax_over_dk", "ratio", lower},
	{"serving.admission_wait_ms_p50", "ms", lower},
	{"serving.admission_wait_ms_p90", "ms", lower},
	{"serving.engine_ms_p50", "ms", lower},
	{"serving.codec_ms_p50", "ms", lower},
	{"serving.codec_share", "share", lower},
	{"serving.codec_us_per_pair", "us", lower},
	{"serving.resp_kb_per_op", "KB", lower},
	{"serving.shed_share", "share", lower},
	{"serving.slo_miss_share", "share", lower},
	{"serving.join_k_ms_p50", "ms", lower},
	{"serving.within_ms_p50", "ms", lower},
	{"serving.cursor_open_ms_p50", "ms", lower},
	{"serving.cursor_next_ms_p50", "ms", lower},
	{"serving.gc_pause_ms_per_s", "ms/s", lower},
	{"obsrv.scrape_ms", "ms", lower},
	{"trace.overhead_share", "share", lower},
	{"loadgen.late_ms_p90", "ms", lower},
	{"loadgen.late_ms_max", "ms", lower},
	{"loadgen.cpu_share", "share", lower},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadJSON{w.Name, w.Why})
	}
	return f
}
