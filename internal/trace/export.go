package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"distjoin/internal/metrics"
)

// Metrics export: turn a metrics.Collector snapshot into machine
// formats. Two are provided:
//
//   - WriteMetricsJSON: the collector's exported fields plus the
//     derived totals, as one JSON object.
//   - WriteMetricsProm: Prometheus text exposition format (HELP/TYPE
//     comments + samples), suitable for a textfile collector or a
//     scrape handler.
//
// Both exporters enumerate the Collector's exported fields by
// reflection, so a counter added to the Collector can never be
// silently dropped from the export — the same property the
// reflection test in internal/metrics enforces for Add/Reset/isZero.
// The exposition text itself is written by PromWriter (prom.go), which
// the process-level registry exporter of internal/obsrv shares.

// promNamespace prefixes every exported Prometheus metric name.
const promNamespace = "distjoin"

// promGaugeFields are Collector fields exported as gauges rather than
// monotone counters (everything else integral is a counter and gets a
// _total suffix).
var promGaugeFields = map[string]bool{
	"MainQueuePeak": true,
}

// durationType identifies time.Duration fields, exported as *_seconds
// gauges.
var durationType = reflect.TypeOf(time.Duration(0))

// snakeCase converts a Go CamelCase identifier to snake_case
// ("NodeAccessesLogical" -> "node_accesses_logical", "IOTime" ->
// "io_time").
func snakeCase(s string) string {
	var b strings.Builder
	runes := []rune(s)
	for i, r := range runes {
		lower := r | 0x20 // ASCII lowercase; identifiers here are ASCII
		isUpper := r >= 'A' && r <= 'Z'
		if isUpper && i > 0 {
			prevUpper := runes[i-1] >= 'A' && runes[i-1] <= 'Z'
			nextLower := i+1 < len(runes) && runes[i+1] >= 'a' && runes[i+1] <= 'z'
			if !prevUpper || nextLower {
				b.WriteByte('_')
			}
		}
		b.WriteRune(lower)
	}
	return b.String()
}

// PromField is one Prometheus metric derivable from a
// metrics.Collector snapshot: the unit WriteMetricsProm emits
// unlabeled and the process-level registry exporter (internal/obsrv)
// emits once per algorithm.
type PromField struct {
	// Name is the full Prometheus metric name ("distjoin_..." with
	// the _total/_seconds suffix conventions).
	Name string
	// Help is the HELP text.
	Help string
	// Gauge marks non-monotone metrics (TYPE gauge vs counter).
	Gauge bool
	// Value extracts the sample value from a collector snapshot; a
	// nil collector yields zero.
	Value func(c *metrics.Collector) float64
}

// Type returns the exposition TYPE of the field.
func (f PromField) Type() string {
	if f.Gauge {
		return "gauge"
	}
	return "counter"
}

// promFields is the one enumeration of the Collector-derived
// families: every exported numeric field of metrics.Collector in
// declaration order (the struct is the table, so a counter added to it
// can never be silently dropped from an exporter), then the derived
// totals. Computed once at package init; a non-numeric exported field
// is a programming error caught by the panic.
var promFields = enumeratePromFields()

func enumeratePromFields() []PromField {
	t := reflect.TypeOf(metrics.Collector{})
	raw := func(c *metrics.Collector, i int) int64 {
		if c == nil {
			return 0
		}
		return reflect.ValueOf(c).Elem().Field(i).Int()
	}
	var out []PromField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		pf := PromField{Help: fmt.Sprintf("Collector field %s.", f.Name)}
		base := promNamespace + "_" + snakeCase(f.Name)
		switch {
		case f.Type == durationType:
			pf.Name, pf.Gauge = base+"_seconds", true
			pf.Value = func(c *metrics.Collector) float64 { return time.Duration(raw(c, i)).Seconds() }
		case f.Type.Kind() == reflect.Int64:
			pf.Name, pf.Gauge = base+"_total", promGaugeFields[f.Name]
			if pf.Gauge {
				pf.Name = base
			}
			pf.Value = func(c *metrics.Collector) float64 { return float64(raw(c, i)) }
		default:
			panic(fmt.Sprintf("trace: unsupported Collector field %s of type %s", f.Name, f.Type))
		}
		out = append(out, pf)
	}
	// The derived totals; the Collector methods behind them are
	// nil-receiver safe.
	return append(out,
		PromField{
			Name:  promNamespace + "_buffer_hit_ratio",
			Help:  "Buffer pool hit ratio: hits / (hits + misses); 0 before any access.",
			Gauge: true,
			Value: func(c *metrics.Collector) float64 { return c.BufferHitRatio() },
		},
		PromField{
			Name:  promNamespace + "_dist_calcs_total",
			Help:  "Total distance computations (axis + real), the quantity of Figures 10(a)/12(a)/14(a).",
			Value: func(c *metrics.Collector) float64 { return float64(c.DistCalcs()) },
		},
		PromField{
			Name:  promNamespace + "_queue_inserts_total",
			Help:  "Total queue insertions across all queues, the quantity of Figures 10(b)/12(b)/14(b).",
			Value: func(c *metrics.Collector) float64 { return float64(c.QueueInserts()) },
		},
		PromField{
			Name:  promNamespace + "_response_time_seconds",
			Help:  "Modeled response time: wall clock plus charged I/O time.",
			Gauge: true,
			Value: func(c *metrics.Collector) float64 { return c.ResponseTime().Seconds() },
		},
	)
}

// PromFields returns every Collector-derived metric, in emission
// order. The slice is shared; callers must not modify it.
func PromFields() []PromField { return promFields }

// WriteMetricsProm writes c as Prometheus text exposition format
// (version 0.0.4): one HELP line, one TYPE line, and one sample per
// PromFields entry. A nil collector exports all zeros.
func WriteMetricsProm(w io.Writer, c *metrics.Collector) error {
	p := NewPromWriter(w)
	for _, f := range promFields {
		p.Header(f.Name, f.Help, f.Type())
		p.Sample(f.Name, "", f.Value(c))
	}
	return p.Err()
}

// WriteMetricsJSON writes c as one JSON object: every exported
// Collector field by name, plus the derived totals DistCalcs,
// QueueInserts, BufferHitRatio, and ResponseTime. Durations are
// nanoseconds (Go's time.Duration encoding). A nil collector exports
// all zeros.
func WriteMetricsJSON(w io.Writer, c *metrics.Collector) error {
	if c == nil {
		c = &metrics.Collector{}
	}
	v := reflect.ValueOf(c).Elem()
	obj := make(map[string]any, v.NumField()+4)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() {
			obj[f.Name] = v.Field(i).Int()
		}
	}
	obj["DistCalcs"] = c.DistCalcs()
	obj["QueueInserts"] = c.QueueInserts()
	obj["BufferHitRatio"] = c.BufferHitRatio()
	obj["ResponseTime"] = int64(c.ResponseTime())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}
