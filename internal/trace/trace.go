// Package trace is the query observability layer: a per-query Tracer
// records structured stage events — node-pair expansions, the adaptive
// algorithms' aggressive-stage start/stop with the active eDmax,
// compensation passes, hybrid-queue spills and reloads with
// memory-vs-disk depth, and eDmax re-estimations — into a bounded ring
// buffer, cheap enough to leave on in production.
//
// The paper's whole argument is quantitative (distance calculations,
// queue inserts, node accesses, stage transitions; Figures 10–15), so
// every knob the engine exposes needs a surface that shows *where* a
// query spent its work. A Tracer provides the per-stage time line;
// the exporters in export.go turn a metrics.Collector snapshot into
// JSON or Prometheus text exposition format for dashboards.
//
// # Cost model
//
// A nil *Tracer is a valid sink: every method no-ops, the event
// structs passed to Emit are stack-allocated values, and the traced
// hot paths add zero allocations (guarded by TestTraceOffNoAllocs and
// BenchmarkAMKDJTraceOff in internal/join). A non-nil Tracer
// allocates its ring buffer once, up front; recording an event is a
// mutex acquire plus a struct copy.
package trace

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind string

// Event kinds emitted by the join engine and the hybrid queue.
const (
	// KindExpansion is one node-pair expansion (an "expansion round"):
	// both sides materialized, plane-swept, and the surviving children
	// enqueued. Count holds the number of children emitted.
	KindExpansion Kind = "expansion"
	// KindStageStart marks a stage beginning (AM-KDJ aggressive stage,
	// AM-IDJ stage s); EDmax carries the stage's active cutoff.
	KindStageStart Kind = "stage_start"
	// KindStageEnd marks a stage ending; Count carries the results
	// produced so far.
	KindStageEnd Kind = "stage_end"
	// KindCompensation marks a compensation pass beginning; Count
	// carries the number of bookkept pairs re-seeded into the queue.
	KindCompensation Kind = "compensation"
	// KindEDmaxUpdate records a re-estimation (or qDmax-driven
	// tightening) of the adaptive cutoff; EDmax carries the new value.
	KindEDmaxUpdate Kind = "edmax_update"
	// KindQueueSpill records the hybrid main queue moving pairs to a
	// disk segment (an overflow split). Count is the number of pairs
	// spilled; MemLen/DiskLen/Segments snapshot the queue afterwards.
	KindQueueSpill Kind = "queue_spill"
	// KindQueueReload records the hybrid main queue swapping a disk
	// segment back into memory. Count is the number of pairs loaded;
	// MemLen/DiskLen/Segments snapshot the queue afterwards.
	KindQueueReload Kind = "queue_reload"
	// KindError records a query aborting with an error (storage fault,
	// cancellation); Err carries the message. Emitted so an aborted
	// run is distinguishable from one that legitimately produced few
	// results.
	KindError Kind = "error"
)

// Event is one structured trace record. Numeric fields are reused
// across kinds (see the Kind doc comments); unused fields are zero and
// omitted from JSON.
type Event struct {
	// Seq is the tracer-assigned sequence number (1-based, gapless
	// even when the ring buffer drops old events).
	Seq uint64 `json:"seq"`
	// At is the event's recording time in microseconds since the
	// tracer was constructed, assigned together with Seq, so At is
	// monotone with Seq.
	At int64 `json:"at_us,omitempty"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Algo names the emitting algorithm ("AM-KDJ", "B-KDJ", ...).
	Algo string `json:"algo,omitempty"`
	// Stage labels the phase within the algorithm ("aggressive",
	// "compensation", "stage", ...).
	Stage string `json:"stage,omitempty"`
	// EDmax is the active estimated cutoff, where meaningful.
	EDmax float64 `json:"edmax,omitempty"`
	// Dist is the driving pair's distance, where meaningful.
	Dist float64 `json:"dist,omitempty"`
	// Count is the kind-specific cardinality (children emitted, pairs
	// spilled, results so far, ...).
	Count int64 `json:"count,omitempty"`
	// LeftLevel / RightLevel are the expanded pair's node levels
	// (0 = leaf, -1 = object side).
	LeftLevel  int `json:"left_level,omitempty"`
	RightLevel int `json:"right_level,omitempty"`
	// MemLen / DiskLen / Segments snapshot the hybrid queue: pairs in
	// the in-memory heap, pairs in disk segments, segment count.
	MemLen   int `json:"mem_len,omitempty"`
	DiskLen  int `json:"disk_len,omitempty"`
	Segments int `json:"segments,omitempty"`
	// Err is the error message for KindError events.
	Err string `json:"error,omitempty"`
}

// MarshalJSON renders the event with non-finite EDmax/Dist values
// omitted (JSON has no Inf literal, and encoding/json errors on one,
// which would make WriteJSON fail on any trace recorded before the
// engine's cutoff left its +Inf starting value). An infinite cutoff
// means "no cutoff established yet", which the absent field already
// expresses via omitempty.
func (e Event) MarshalJSON() ([]byte, error) {
	type plain Event // drops the method, avoiding marshal recursion
	p := plain(e)
	if math.IsInf(p.EDmax, 0) || math.IsNaN(p.EDmax) {
		p.EDmax = 0
	}
	if math.IsInf(p.Dist, 0) || math.IsNaN(p.Dist) {
		p.Dist = 0
	}
	return json.Marshal(p)
}

// DefaultCapacity is the ring-buffer size used when New is given a
// non-positive capacity. At ~200 bytes per event this bounds a tracer
// at roughly 1 MB.
const DefaultCapacity = 4096

// Tracer records Events into a bounded ring buffer. The zero value is
// not usable; construct with New. A nil *Tracer is a valid no-op sink
// (see the package comment), which is how library code threads an
// optional tracer without call-site nil checks.
//
// A Tracer is safe for concurrent use: the query's goroutine is the
// only emitter, and readers (Events, WriteJSON, the server's explain
// digest) may snapshot it from another goroutine, so the internal
// mutex is all but uncontended.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	head    int // index of the oldest buffered event
	n       int // number of buffered events
	seq     uint64
	dropped uint64
	start   time.Time // epoch for Event.At
}

// New returns a Tracer whose ring buffer holds up to capacity events;
// capacity <= 0 selects DefaultCapacity. Once full, each new event
// overwrites the oldest (Dropped counts the casualties) so a
// long-running query keeps its most recent history.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity), start: time.Now()}
}

// Enabled reports whether events are actually recorded. It lets
// callers skip expensive event-argument computation (nil tracers
// record nothing).
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records ev, assigning its sequence number. Safe on a nil
// receiver (no-op).
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	ev.At = int64(time.Since(t.start) / time.Microsecond)
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		t.n++
	} else {
		// Ring full: overwrite the oldest.
		t.buf[t.head] = ev
		t.head = (t.head + 1) % len(t.buf)
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the buffered events in emission (sequence)
// order. Nil receivers return nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.head+i)%len(t.buf)])
	}
	return out
}

// Reset discards all buffered events and the drop counter; sequence
// numbers keep increasing so a reused tracer's time line stays
// totally ordered.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = t.buf[:0]
	t.head = 0
	t.n = 0
	t.dropped = 0
}

// traceDump is the JSON document shape written by WriteJSON.
type traceDump struct {
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// WriteJSON writes the buffered events as one JSON document:
//
//	{"dropped": N, "events": [{...}, ...]}
//
// Safe on a nil receiver (writes an empty document).
func (t *Tracer) WriteJSON(w io.Writer) error {
	dump := traceDump{Events: t.Events(), Dropped: t.Dropped()}
	if dump.Events == nil {
		dump.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// CountKind returns how many buffered events have the given kind —
// a convenience for tests and assertions on trace contents.
func (t *Tracer) CountKind(k Kind) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := 0
	for i := 0; i < t.n; i++ {
		if t.buf[(t.head+i)%len(t.buf)].Kind == k {
			c++
		}
	}
	return c
}
