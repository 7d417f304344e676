package serving

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distjoin"
)

// Request telemetry: every /v1 POST is minted a query ID at entry
// (returned as the X-Distjoin-Query-Id header and threaded into the
// engine's registry entry via Options.QueryID), timed through
// admission and execution, recorded in the structured request log,
// classified into the distjoin_serving_* metric families, and — when
// slower than the configured threshold — retained in a bounded
// in-memory ring served at /debug/slowlog.

// mintQueryID returns the next request identity: a per-process random
// prefix plus a sequence number. The prefix keeps IDs from colliding
// across server restarts; the sequence keeps minting allocation-cheap
// and collision-free within a process (no per-request entropy read,
// which can fail and would put an error path on every request).
func (s *Server) mintQueryID() string {
	seq := s.qidSeq.Add(1)
	// Render the sequence without fmt to keep this path trivial.
	var buf [20]byte
	i := len(buf)
	for n := seq; ; n /= 10 {
		i--
		buf[i] = byte('0' + n%10)
		if n < 10 {
			break
		}
	}
	return s.qidPrefix + "-" + string(buf[i:])
}

// newQIDPrefix draws the per-process query-ID prefix. A failed entropy
// read degrades to a fixed prefix: IDs stay unique within the process,
// which is what the telemetry needs.
func newQIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "q0"
	}
	return hex.EncodeToString(b[:])
}

// reqTelemetry is one /v1 POST's record. The pipeline (pipeline.go)
// creates it, the endpoint fills it in as the request is resolved, and
// finish turns it into the log record, the slow-query ring entry, and
// the metric samples.
type reqTelemetry struct {
	s       *Server
	family  string
	queryID string
	start   time.Time
	// header is the response's header map: the one part of the
	// ResponseWriter an endpoint may touch.
	header http.Header

	// Set by Server.admit: until is the request's absolute deadline,
	// cancel the deadline context's, admitted whether a slot is held.
	until             time.Time
	cancel            context.CancelFunc
	admitted          bool
	admissionWait     time.Duration
	queueDepthAtEntry int

	// Set by the endpoint as the request is resolved.
	index      string        // dataset name(s), comma-joined for two-sided joins
	k          int           // ranked-query k, 0 where not applicable
	deadline   time.Duration // resolved deadline budget
	distCalcs  int64         // the engine's work for this request; for a cursor page, the page's
	compStages int64         // compensation stages run, counted like distCalcs
	edmaxMode  string
	results    int

	// Set by the pipeline once the response is chosen.
	status int
	err    error
}

// slowLogEntry is the schema of one request record: /debug/slowlog
// serves it as JSON, and the request log's attributes are generated
// from its fields (requestLogFields), so the two cannot drift. Every
// field is a string, an integer or a float. Names, order and rendered
// bytes are pinned by TestRequestRecordGolden.
type slowLogEntry struct {
	QueryID           string  `json:"query_id"`
	Family            string  `json:"family"`
	Index             string  `json:"index,omitempty"`
	K                 int     `json:"k,omitempty"`
	Status            int     `json:"status"`
	AdmissionWaitUS   int64   `json:"admission_wait_us"`
	QueueDepthAtEntry int     `json:"queue_depth_at_entry"`
	DeadlineMS        int64   `json:"deadline_ms"`
	ElapsedMS         float64 `json:"elapsed_ms"`
	DistCalcs         int64   `json:"dist_calcs"`
	CompStages        int64   `json:"comp_stages"`
	EDmaxMode         string  `json:"edmax_mode,omitempty"`
	Results           int     `json:"results"`
	Error             string  `json:"error,omitempty"`
}

// logField is one attribute of the request log: its key and the
// slowLogEntry field it reads, or index -1 for the slow flag.
type logField struct {
	key   string
	index int
}

// requestLogFields is the request log's schema, resolved once from
// slowLogEntry: one attribute per field, keyed by the JSON tag's name,
// in declaration order — plus "slow", the one key that is not an entry
// field (everything in the slow log is slow), logged just ahead of the
// trailing "error".
var requestLogFields = func() (fields []logField) {
	t := reflect.TypeOf(slowLogEntry{})
	for i := 0; i < t.NumField(); i++ {
		key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if key == "error" {
			fields = append(fields, logField{"slow", -1})
		}
		fields = append(fields, logField{key, i})
	}
	return fields
}()

// RequestLogKeys returns the attribute keys of the "request" log
// record, in the order they are logged: the schema the tests, and
// cmd/distjoin-server's TestServeSmoke on the binary's stderr, check a
// log line against.
func RequestLogKeys() []string {
	keys := make([]string, len(requestLogFields))
	for i, f := range requestLogFields {
		keys[i] = f.key
	}
	return keys
}

// logAttrs renders e as the request log's attributes. Unlike the JSON
// form, the log line carries every key, empty or not.
func (e *slowLogEntry) logAttrs(slow bool) []slog.Attr {
	v := reflect.ValueOf(e).Elem()
	attrs := make([]slog.Attr, len(requestLogFields))
	for i, f := range requestLogFields {
		if f.index < 0 {
			attrs[i] = slog.Bool(f.key, slow)
			continue
		}
		switch fv := v.Field(f.index); fv.Kind() {
		case reflect.String:
			attrs[i] = slog.String(f.key, fv.String())
		case reflect.Float64:
			attrs[i] = slog.Float64(f.key, fv.Float())
		default:
			attrs[i] = slog.Int64(f.key, fv.Int())
		}
	}
	return attrs
}

// recordRequest classifies and records one finished request. Split
// from finish with elapsed as a parameter so the threshold boundary is
// unit-testable without clock control: a request is slow iff
// elapsed is strictly greater than the threshold.
func (s *Server) recordRequest(t *reqTelemetry, elapsed time.Duration) {
	entry := slowLogEntry{
		QueryID:           t.queryID,
		Family:            t.family,
		Index:             t.index,
		K:                 t.k,
		Status:            t.status,
		AdmissionWaitUS:   t.admissionWait.Microseconds(),
		QueueDepthAtEntry: t.queueDepthAtEntry,
		DeadlineMS:        t.deadline.Milliseconds(),
		ElapsedMS:         float64(elapsed.Microseconds()) / 1e3,
		DistCalcs:         t.distCalcs,
		CompStages:        t.compStages,
		EDmaxMode:         t.edmaxMode,
		Results:           t.results,
	}
	if t.err != nil {
		entry.Error = t.err.Error()
	}
	slow := elapsed > s.cfg.SlowQueryThreshold
	if slow {
		s.slow.push(entry)
		s.metrics.Inc(distjoin.ServingSlowQueries)
	}
	// Error statuses were counted by writeError when they were chosen.
	if t.status == http.StatusOK {
		s.metrics.ObserveRequest(t.family, elapsed, t.admissionWait)
	}

	if lg := s.cfg.Logger; lg != nil {
		level := slog.LevelInfo
		if slow {
			level = slog.LevelWarn
		}
		lg.LogAttrs(context.Background(), level, "request", entry.logAttrs(slow)...)
	}
}

// slowLog is a bounded FIFO ring of recent slow-query records: once
// full, each new entry evicts the oldest, so /debug/slowlog always
// shows the most recent history.
type slowLog struct {
	mu   sync.Mutex
	buf  []slowLogEntry
	head int // index of the oldest entry
	n    int
}

func newSlowLog(capacity int) *slowLog {
	return &slowLog{buf: make([]slowLogEntry, 0, capacity)}
}

func (l *slowLog) push(e slowLogEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		l.n++
		return
	}
	l.buf[l.head] = e
	l.head = (l.head + 1) % len(l.buf)
}

// snapshot returns the retained entries, oldest first.
func (l *slowLog) snapshot() []slowLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]slowLogEntry, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.head+i)%len(l.buf)])
	}
	return out
}

// slowLogView serves GET /debug/slowlog: the retained slow-query
// records, oldest first, under the schema of slowLogEntry.
func (s *Server) slowLogView() (any, error) {
	return struct {
		ThresholdMS int64          `json:"threshold_ms"`
		Entries     []slowLogEntry `json:"entries"`
	}{
		ThresholdMS: s.cfg.SlowQueryThreshold.Milliseconds(),
		Entries:     s.slow.snapshot(),
	}, nil
}

// drainTracker observes request completions and derives the server's
// recent drain rate, which prices the Retry-After header of 429
// responses: a client should come back once the queue ahead of it has
// plausibly drained.
type drainTracker struct {
	completions atomic.Int64

	mu          sync.Mutex
	windowStart time.Time
	windowBase  int64   // completions at windowStart
	lastRate    float64 // completions/sec over the last full window
}

// observe counts one completed request (anything that held a slot).
func (d *drainTracker) observe() { d.completions.Add(1) }

// ratePerSec returns the observed completion rate. Windows of at
// least one second are folded into lastRate; before the first window
// completes, the in-window rate is used so a fresh server still
// prices its Retry-After from real observations.
func (d *drainTracker) ratePerSec(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.completions.Load()
	if d.windowStart.IsZero() {
		d.windowStart = now
		d.windowBase = cur
		return 0
	}
	elapsed := now.Sub(d.windowStart)
	if elapsed >= time.Second {
		d.lastRate = float64(cur-d.windowBase) / elapsed.Seconds()
		d.windowStart = now
		d.windowBase = cur
		return d.lastRate
	}
	if d.lastRate > 0 {
		return d.lastRate
	}
	if elapsed > 0 {
		return float64(cur-d.windowBase) / elapsed.Seconds()
	}
	return 0
}

// retryAfterSeconds prices a 429's Retry-After from the queue depth a
// rejected client saw and the observed drain rate: roughly how long
// until the line ahead has drained, clamped to [1, 60] seconds. An
// unknown rate (cold server) falls back to the floor.
func retryAfterSeconds(queueDepth int, ratePerSec float64) int {
	if ratePerSec <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(queueDepth+1) / ratePerSec))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}
