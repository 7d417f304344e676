// Package serving turns the distance-join engine into a long-running
// multi-tenant query server: an HTTP/JSON API over pre-built indexes
// with concurrent query scheduling, admission control, per-query
// deadline and queue-memory budgets, incremental pagination, and
// graceful shutdown.
//
// The design treats the paper's §4.4 queue-memory budget as the unit
// of per-query resource rationing: every request runs under a clamped
// Options.QueueMemBytes and a clamped deadline enforced through
// Options.Context, and the server bounds how many queries execute
// concurrently (Config.MaxInFlight) and how many may wait for a slot
// (Config.MaxQueued) — beyond that, requests are rejected immediately
// with 429 rather than queued without bound.
//
// Layering: the package speaks only the public distjoin facade — the
// same API any external embedder uses — so the server is also a
// continuous integration test of the facade's contract. The
// observability surface (internal/obsrv) is mounted alongside the
// query endpoints, and the HTTP lifecycle reuses obsrv.ServeHandler /
// Server.Shutdown.
//
// See docs/serving.md for the wire schema and cmd/distjoin-server for
// the binary.
package serving

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distjoin"
)

// Config tunes a query server. The zero value is usable; every field
// falls back to the package default noted on it.
type Config struct {
	// MaxInFlight bounds how many queries execute concurrently
	// (default: GOMAXPROCS). Each request — a blocking join or one
	// incremental page pull — holds a slot while it executes; an idle
	// open cursor holds no slot, only its cursor-table entry.
	MaxInFlight int
	// MaxQueued bounds how many admitted requests may wait for an
	// execution slot (default: 2 * MaxInFlight). Requests arriving
	// beyond that are rejected with HTTP 429 immediately — the
	// admission queue is a shock absorber, not an unbounded backlog.
	MaxQueued int
	// DefaultDeadline is the per-query deadline applied when a request
	// does not set deadline_ms (default 30s). The deadline covers slot
	// wait plus execution; for incremental queries it covers the whole
	// cursor lifetime, from open to the last page.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines (default 2m).
	MaxDeadline time.Duration
	// DefaultQueueMemBytes is the §4.4 in-memory main-queue budget
	// applied when a request does not set queue_mem_bytes (default:
	// the engine default, 512 KB).
	DefaultQueueMemBytes int
	// MaxQueueMemBytes clamps client-requested queue memory
	// (default 8 MB).
	MaxQueueMemBytes int
	// MaxK bounds the k of ranked queries (default 100000). Larger
	// requests are rejected with 400 rather than silently truncated.
	MaxK int
	// MaxCursors bounds how many incremental cursors may be open at
	// once (default 64); each holds a live engine iterator and its
	// queue memory until closed, exhausted, or expired.
	MaxCursors int
	// Registry, when non-nil, aggregates every served query into the
	// process observability registry and backs the mounted /metrics,
	// /queries, and /debug endpoints. The server's serving telemetry
	// (Registry.Serving) is attached to it: the distjoin_serving_*
	// Prometheus families on /metrics read the same counters as
	// /v1/stats.
	Registry *distjoin.Registry
	// Logger, when non-nil, receives one structured record per /v1
	// request ("request" at Info, or Warn when over the slow-query
	// threshold) with the request's full telemetry: query ID, family,
	// index, k, admission wait, queue depth at entry, deadline budget
	// vs. elapsed, dist-calcs, eDmax correction mode, result count,
	// and status. Nil disables request logging.
	Logger *slog.Logger
	// SlowQueryThreshold classifies a request as slow when its total
	// latency strictly exceeds it (default 1s). Slow requests are
	// logged at Warn, counted as ServingSlowQueries, and retained in
	// the /debug/slowlog ring.
	SlowQueryThreshold time.Duration
	// SlowLogCapacity bounds the /debug/slowlog ring (default 128);
	// once full, each new slow query evicts the oldest entry.
	SlowLogCapacity int
}

// withDefaults resolves every unset field to its default; New applies
// it once and the server reads plain fields after.
func (c Config) withDefaults() Config {
	c.MaxInFlight = orDefault(c.MaxInFlight, runtime.GOMAXPROCS(0))
	c.MaxQueued = orDefault(c.MaxQueued, 2*c.MaxInFlight)
	c.DefaultDeadline = orDefault(c.DefaultDeadline, 30*time.Second)
	c.MaxDeadline = orDefault(c.MaxDeadline, 2*time.Minute)
	c.MaxQueueMemBytes = orDefault(c.MaxQueueMemBytes, 8<<20)
	c.MaxK = orDefault(c.MaxK, 100_000)
	c.MaxCursors = orDefault(c.MaxCursors, 64)
	c.SlowQueryThreshold = orDefault(c.SlowQueryThreshold, time.Second)
	c.SlowLogCapacity = orDefault(c.SlowLogCapacity, 128)
	return c
}

func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Sentinel errors of the admission and lifecycle paths; the API layer
// maps them to HTTP statuses (queue full → 429, draining → 503).
var (
	errQueueFull = errors.New("serving: admission queue full")
	errDraining  = errors.New("serving: server is shutting down")
)

// Server serves distance-join queries over a fixed set of named
// indexes. Build one with New, register datasets with AddIndex, mount
// Handler on an HTTP server (obsrv.ServeHandler pairs naturally), and
// stop it with Shutdown.
type Server struct {
	cfg  Config
	gate *gate

	mu      sync.RWMutex
	indexes map[string]*distjoin.Index

	cursors *cursorTable

	// Telemetry: metrics is the server's one counter set, behind both
	// /v1/stats and (when Config.Registry is set, which then exports
	// it) the distjoin_serving_* families of /metrics; slow the
	// /debug/slowlog ring, drain the completion-rate tracker pricing
	// Retry-After, and qidPrefix/qidSeq the query-ID mint.
	metrics   *distjoin.ServingMetrics
	slow      *slowLog
	drain     drainTracker
	qidPrefix string
	qidSeq    atomic.Uint64

	// Lifecycle state: lmu guards the draining flag together with the
	// count of queries past admission, so a query either sees draining
	// and is rejected, or increments active before Shutdown samples it —
	// never neither. drained closes (once) when the last active query
	// finishes after draining began.
	lmu         sync.Mutex
	active      int
	drainFlag   bool
	drained     chan struct{}
	drainedOnce sync.Once

	// base is the parent context of cursor-scoped query contexts — it
	// must survive individual requests, so cursors keep working across
	// pages. Close cancels it as the hard stop.
	base     context.Context
	baseStop context.CancelFunc
}

// New returns a server with no datasets registered.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		gate:      newGate(cfg.MaxInFlight, cfg.MaxQueued),
		indexes:   make(map[string]*distjoin.Index),
		cursors:   newCursorTable(cfg.MaxCursors),
		drained:   make(chan struct{}),
		base:      base,
		baseStop:  stop,
		metrics:   cfg.Registry.Serving(),
		slow:      newSlowLog(cfg.SlowLogCapacity),
		qidPrefix: newQIDPrefix(),
	}
	s.cursors.expired = func() { s.metrics.Inc(distjoin.ServingCursorsExpired) }
	// The gauge provider reads the server's own admission gate and
	// lifecycle state; obsrv invokes it outside its locks.
	s.metrics.SetGauges(func() distjoin.ServingGauges {
		return distjoin.ServingGauges{
			InFlight:    s.gate.inFlight(),
			Queued:      s.gate.queued(),
			OpenCursors: s.cursors.open(),
			Draining:    s.Draining(),
		}
	})
	return s
}

// AddIndex registers idx under name, making it addressable by
// queries. Names must be unique and non-empty; indexes must be
// non-nil. Registration is typically done before serving, but is safe
// at any time.
func (s *Server) AddIndex(name string, idx *distjoin.Index) error {
	if name == "" {
		return fmt.Errorf("serving: index name must be non-empty")
	}
	if idx == nil {
		return fmt.Errorf("serving: index %q is nil", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.indexes[name]; ok {
		return fmt.Errorf("serving: index %q already registered", name)
	}
	s.indexes[name] = idx
	return nil
}

// lookup resolves a dataset name.
func (s *Server) lookup(name string) (*distjoin.Index, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, ok := s.indexes[name]
	return idx, ok
}

// indexNames returns the registered names, sorted for stable output.
func (s *Server) indexNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.indexes))
	for name := range s.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// begin registers a query for drain tracking; it reports false — the
// query must be rejected — once draining has started.
func (s *Server) begin() bool {
	s.lmu.Lock()
	defer s.lmu.Unlock()
	if s.drainFlag {
		return false
	}
	s.active++
	return true
}

// end is begin's counterpart; the last query out after draining began
// releases the drain waiters.
func (s *Server) end() {
	s.lmu.Lock()
	s.active--
	idle := s.drainFlag && s.active == 0
	s.lmu.Unlock()
	if idle {
		s.drainedOnce.Do(func() { close(s.drained) })
	}
}

// deadline resolves a client-requested deadline (milliseconds; 0
// means "server default") to a duration, clamped to MaxDeadline.
func (s *Server) deadline(deadlineMS int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	return min(d, s.cfg.MaxDeadline)
}

// queueMem resolves a client-requested queue-memory budget (bytes; 0
// means "server default") clamped to MaxQueueMemBytes.
func (s *Server) queueMem(req int) int {
	m := s.cfg.DefaultQueueMemBytes
	if req > 0 {
		m = req
	}
	return min(m, s.cfg.MaxQueueMemBytes)
}

// Shutdown gracefully stops the server: new queries are rejected with
// 503, queries already admitted (including queued ones) run to
// completion, and open incremental cursors are closed once the drain
// finishes. If ctx expires before the drain completes, Shutdown
// returns ctx.Err() with queries still running; escalate with Close.
//
// Shutdown only drains the query scheduler — pair it with the HTTP
// server's own graceful stop (obsrv.Server.Shutdown) so in-flight
// response bodies are also flushed before the process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lmu.Lock()
	s.drainFlag = true
	idle := s.active == 0
	s.lmu.Unlock()
	if idle {
		s.drainedOnce.Do(func() { close(s.drained) })
	}
	select {
	case <-s.drained:
		s.cursors.closeAll()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close hard-stops the server: the base context is cancelled, which
// aborts in-flight cursor queries at their next cancellation poll,
// and all cursors are closed. Prefer Shutdown; use Close as the
// escalation when the drain deadline expires.
func (s *Server) Close() {
	s.lmu.Lock()
	s.drainFlag = true
	s.lmu.Unlock()
	s.baseStop()
	s.cursors.closeAll()
}

// Draining reports whether Shutdown or Close has been initiated.
func (s *Server) Draining() bool {
	s.lmu.Lock()
	defer s.lmu.Unlock()
	return s.drainFlag
}

// Handler returns the server's HTTP handler: the /v1 query API plus
// the observability surface (/metrics, /queries, /healthz,
// /debug/...) of the configured registry. See docs/serving.md for the
// wire schema.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join/k", endpoint(s, "join/k", s.kDistance))
	mux.HandleFunc("POST /v1/join/closest", endpoint(s, "join/closest", s.kClosest))
	mux.HandleFunc("POST /v1/join/within", endpoint(s, "join/within", s.within))
	mux.HandleFunc("POST /v1/join/incremental", endpoint(s, "incremental/open", s.incrementalOpen))
	mux.HandleFunc("POST /v1/join/incremental/next", endpoint(s, "incremental/next", s.incrementalNext))
	mux.HandleFunc("POST /v1/join/incremental/close", endpoint(s, "incremental/close", s.incrementalClose))
	mux.HandleFunc("GET /v1/indexes", s.view(s.indexesView))
	mux.HandleFunc("GET /v1/stats", s.view(s.statsView))
	// More specific than the /debug/ catch-all below, so it wins the
	// ServeMux precedence contest.
	mux.HandleFunc("GET /debug/slowlog", s.view(s.slowLogView))

	// Observability endpoints share the mux, so one listener serves
	// both the query API and the scrape surface.
	obs := distjoin.ObservabilityHandler(s.cfg.Registry)
	mux.Handle("/metrics", obs)
	mux.Handle("/queries", obs)
	mux.Handle("/healthz", obs)
	mux.Handle("/debug/", obs)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			// No query context here: a plain 404 matches net/http
			// convention for unknown paths.
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "distjoin query server\n\n"+
			"POST /v1/join/k                   k-distance join\n"+
			"POST /v1/join/closest             k closest pairs (self-join)\n"+
			"POST /v1/join/within              within-distance join\n"+
			"POST /v1/join/incremental         open incremental cursor (+ first page)\n"+
			"POST /v1/join/incremental/next    next page\n"+
			"POST /v1/join/incremental/close   close cursor\n"+
			"GET  /v1/indexes                  registered datasets\n"+
			"GET  /v1/stats                    admission/scheduling counters\n"+
			"GET  /metrics /queries /healthz /debug/...  observability\n")
	})
	return mux
}
