package obsrv

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distjoin/internal/trace"
)

// ServingCounter names one scalar counter of the serving layer. The
// constants index servingCounters, the one table every surface that
// shows a serving counter is rendered from.
type ServingCounter int

// The serving counters. Each serving event is counted by exactly one
// Inc call (see internal/serving), so the surfaces cannot disagree.
const (
	ServingAccepted ServingCounter = iota
	ServingShed
	ServingRejectedDraining
	ServingDeadlineExceeded
	ServingClientGone
	ServingFailed
	ServingSlowQueries
	ServingCursorsOpened
	ServingCursorsExpired
	numServingCounters
)

// servingCounters is the serving counter table: for each counter its
// Prometheus family and HELP text on /metrics, its key in the /v1/stats
// body, and its key in the serving block of /debug/vars. An empty name
// keeps the counter off that surface. A new counter is one constant
// above and one row here.
var servingCounters = [numServingCounters]struct {
	prom, help string
	stats      string
	vars       string
}{
	ServingAccepted: {stats: "accepted_total"},
	ServingShed: {
		prom: "distjoin_serving_shed_total", help: "Requests rejected with 429 because the admission queue was full.",
		stats: "rejected_queue_full_total", vars: "shed",
	},
	ServingRejectedDraining: {
		prom: "distjoin_serving_rejected_draining_total", help: "Requests rejected with 503 during graceful drain.",
		stats: "rejected_draining_total", vars: "rejected_draining",
	},
	ServingDeadlineExceeded: {
		prom: "distjoin_serving_deadline_exceeded_total", help: "Requests that exceeded their deadline budget (504).",
		stats: "deadline_exceeded_total", vars: "deadline_exceeded",
	},
	ServingClientGone: {
		prom: "distjoin_serving_client_gone_total", help: "Requests abandoned by their client before completion (499).",
		stats: "client_gone_total", vars: "client_gone",
	},
	ServingFailed: {
		prom: "distjoin_serving_failed_total", help: "Requests that failed with a server-side error.",
		stats: "failed_total", vars: "failed",
	},
	ServingSlowQueries: {
		prom: "distjoin_serving_slow_queries_total", help: "Requests slower than the configured slow-query threshold.",
		vars: "slow_queries",
	},
	ServingCursorsOpened: {
		prom: "distjoin_serving_cursors_opened_total", help: "Incremental cursors opened.",
		vars: "cursors_opened",
	},
	ServingCursorsExpired: {
		prom: "distjoin_serving_cursors_expired_total", help: "Incremental cursors reaped by the idle sweep.",
		vars: "cursors_expired",
	},
}

// ServingMetrics aggregates the HTTP serving layer's telemetry —
// per-family request counts and latency distributions, the admission
// queue's wait distribution, the scalar counters of servingCounters,
// and point-in-time gauges. The serving layer obtains one from
// Registry.Serving, which also attaches it to the registry's
// Prometheus surface, and feeds it through the public facade.
//
// A nil *ServingMetrics is a valid no-op sink, the same discipline as
// the Registry itself. All methods are safe for concurrent use.
type ServingMetrics struct {
	mu       sync.Mutex
	families map[string]*servingFamily
	names    []string // sorted keys of families, maintained on insert

	admissionWait *Histogram

	counters [numServingCounters]atomic.Uint64

	// gauges is the serving layer's point-in-time state provider,
	// installed with SetGauges. It is invoked with no obsrv lock held:
	// the provider reads the server's own admission gate and lifecycle
	// state, and holding a registry mutex across foreign locks is
	// exactly what the lockheld analyzer forbids.
	gauges atomic.Pointer[func() ServingGauges]
}

// servingFamily is one request family's aggregate.
type servingFamily struct {
	requests uint64
	latency  *Histogram
}

// waitBuckets spans 1µs..~18m of admission wait with factor-4
// resolution — queue waits are usually microseconds (uncontended
// channel receive) but stretch to the full deadline under overload.
var waitBuckets = ExpBuckets(1e-6, 4, 16)

func newServingMetrics() *ServingMetrics {
	return &ServingMetrics{
		families:      make(map[string]*servingFamily),
		admissionWait: NewHistogram(waitBuckets),
	}
}

// ServingGauges is the point-in-time serving state exported as gauge
// families, supplied on demand by the provider given to SetGauges.
type ServingGauges struct {
	// InFlight is the number of queries currently executing.
	InFlight int `json:"in_flight"`
	// Queued is the number of admitted requests waiting for a slot.
	Queued int `json:"queued"`
	// OpenCursors is the number of live incremental cursors.
	OpenCursors int `json:"open_cursors"`
	// Draining reports whether the server has begun graceful shutdown.
	Draining bool `json:"draining"`
}

// SetGauges installs the serving layer's gauge provider. The provider
// must be safe for concurrent use; it is called once per snapshot,
// never under an obsrv lock. A nil receiver no-ops.
func (m *ServingMetrics) SetGauges(provider func() ServingGauges) {
	if m == nil || provider == nil {
		return
	}
	m.gauges.Store(&provider)
}

// family returns (creating if needed) the aggregate for the named
// request family. Callers hold m.mu.
func (m *ServingMetrics) family(name string) *servingFamily {
	f := m.families[name]
	if f == nil {
		f = &servingFamily{latency: NewHistogram(latencyBuckets)}
		m.families[name] = f
		i := sort.SearchStrings(m.names, name)
		m.names = append(m.names, "")
		copy(m.names[i+1:], m.names[i:])
		m.names[i] = name
	}
	return f
}

// ObserveRequest records one served request of the given family: its
// total latency (admission wait + execution) and, separately, the time
// it spent waiting for an admission slot.
func (m *ServingMetrics) ObserveRequest(family string, latency, admissionWait time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	f := m.family(family)
	f.requests++
	f.latency.Observe(latency.Seconds())
	m.admissionWait.Observe(admissionWait.Seconds())
	m.mu.Unlock()
}

// Inc counts one occurrence of c.
func (m *ServingMetrics) Inc(c ServingCounter) {
	if m != nil {
		m.counters[c].Add(1)
	}
}

// ServingFamilySnapshot is one request family's aggregate as rendered
// by the exporters.
type ServingFamilySnapshot struct {
	Family   string            `json:"family"`
	Requests uint64            `json:"requests"`
	Latency  HistogramSnapshot `json:"latency_seconds"`
}

// ServingSnapshot is an immutable copy of the serving telemetry,
// embedded in the registry Snapshot when a serving layer is attached.
type ServingSnapshot struct {
	Families      []ServingFamilySnapshot
	AdmissionWait HistogramSnapshot
	// Counters is indexed by ServingCounter.
	Counters [numServingCounters]uint64
	Gauges   ServingGauges
}

// Snapshot copies the serving telemetry. The gauge provider runs
// before the metrics mutex is taken, so a provider reading the
// server's own locks can never deadlock against a concurrent
// ObserveRequest. Safe on a nil receiver (returns an empty snapshot).
func (m *ServingMetrics) Snapshot() ServingSnapshot {
	if m == nil {
		return ServingSnapshot{}
	}
	var s ServingSnapshot
	if p := m.gauges.Load(); p != nil {
		s.Gauges = (*p)()
	}
	for c := range m.counters {
		s.Counters[c] = m.counters[c].Load()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Families = make([]ServingFamilySnapshot, 0, len(m.names))
	s.AdmissionWait = m.admissionWait.Snapshot()
	for _, name := range m.names {
		f := m.families[name]
		s.Families = append(s.Families, ServingFamilySnapshot{
			Family:   name,
			Requests: f.requests,
			Latency:  f.latency.Snapshot(),
		})
	}
	return s
}

// jsonMember is one key of a JSON object rendered in a fixed order.
type jsonMember struct {
	key   string
	value any
}

// marshalObject renders members as one JSON object, in order.
func marshalObject(members []jsonMember) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, m := range members {
		if i > 0 {
			b.WriteByte(',')
		}
		key, _ := json.Marshal(m.key) // a string always marshals
		b.Write(key)
		b.WriteByte(':')
		value, err := json.Marshal(m.value)
		if err != nil {
			return nil, err
		}
		b.Write(value)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// MarshalJSON renders the serving block of /debug/vars: the request
// families, the admission-wait histogram, every counter with a vars
// key, and the gauges.
func (s ServingSnapshot) MarshalJSON() ([]byte, error) {
	members := []jsonMember{
		{"families", s.Families},
		{"admission_wait_seconds", s.AdmissionWait},
	}
	for c, d := range servingCounters {
		if d.vars != "" {
			members = append(members, jsonMember{d.vars, s.Counters[c]})
		}
	}
	return marshalObject(append(members, jsonMember{"gauges", s.Gauges}))
}

// StatsJSON renders the body of the serving layer's /v1/stats: the
// gauges around every counter with a stats key.
func (s ServingSnapshot) StatsJSON() ([]byte, error) {
	members := []jsonMember{
		{"in_flight", s.Gauges.InFlight},
		{"queued", s.Gauges.Queued},
		{"open_cursors", s.Gauges.OpenCursors},
	}
	for c, d := range servingCounters {
		if d.stats != "" {
			members = append(members, jsonMember{d.stats, s.Counters[c]})
		}
	}
	return marshalObject(append(members, jsonMember{"draining", s.Gauges.Draining}))
}

// writeServingProm appends the distjoin_serving_* families to the
// exposition. Called by writeProm when the snapshot carries serving
// telemetry.
func writeServingProm(p *trace.PromWriter, s *ServingSnapshot) {
	const (
		requests = "distjoin_serving_requests_total"
		latency  = "distjoin_serving_request_latency_seconds"
		wait     = "distjoin_serving_admission_wait_seconds"
	)
	p.Header(requests, "HTTP requests served, by request family.", "counter")
	for _, f := range s.Families {
		p.Sample(requests, trace.PromLabel("family", f.Family), float64(f.Requests))
	}
	p.Header(latency, "End-to-end request latency (admission wait + execution), by request family.", "histogram")
	for _, f := range s.Families {
		writeHistogram(p, latency, trace.PromLabel("family", f.Family), f.Latency)
	}
	p.Header(wait, "Time requests spent waiting for an admission slot.", "histogram")
	writeHistogram(p, wait, "", s.AdmissionWait)

	for c, d := range servingCounters {
		if d.prom != "" {
			p.Header(d.prom, d.help, "counter")
			p.Sample(d.prom, "", float64(s.Counters[c]))
		}
	}

	draining := 0
	if s.Gauges.Draining {
		draining = 1
	}
	for _, g := range []struct {
		name, help string
		value      int
	}{
		{"distjoin_serving_inflight_queries", "Queries currently executing in the serving layer.", s.Gauges.InFlight},
		{"distjoin_serving_queued_requests", "Admitted requests waiting for an execution slot.", s.Gauges.Queued},
		{"distjoin_serving_open_cursors", "Live incremental cursors.", s.Gauges.OpenCursors},
		{"distjoin_serving_draining", "1 while the server is draining for graceful shutdown, else 0.", draining},
	} {
		p.Header(g.name, g.help, "gauge")
		p.Sample(g.name, "", float64(g.value))
	}
}
