package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"distjoin/internal/metrics"
)

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"RealDistCalcs":       "real_dist_calcs",
		"NodeAccessesLogical": "node_accesses_logical",
		"MainQueuePeak":       "main_queue_peak",
		"ModeledIOTime":       "modeled_io_time",
		"BufferHits":          "buffer_hits",
		"WallTime":            "wall_time",
		"QueuePageReads":      "queue_page_reads",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// populatedCollector fills every exported field with a distinct
// nonzero value via reflection, so export omissions are detectable.
func populatedCollector(t *testing.T) *metrics.Collector {
	t.Helper()
	c := &metrics.Collector{}
	v := reflect.ValueOf(c).Elem()
	typ := v.Type()
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		if !typ.Field(i).IsExported() {
			continue
		}
		n++
		v.Field(i).SetInt(int64(n) * 1e6) // big enough that durations are whole microseconds
	}
	if n == 0 {
		t.Fatal("Collector has no exported fields")
	}
	return c
}

// TestPromExportCoversCollector asserts that every exported Collector
// field appears in the Prometheus output with its populated value, that
// the text parses as exposition format, and that PromFields matches
// what is actually written.
func TestPromExportCoversCollector(t *testing.T) {
	c := populatedCollector(t)
	var buf bytes.Buffer
	if err := WriteMetricsProm(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Parse: every non-comment line is "name value"; collect samples.
	samples := map[string]float64{}
	helps := map[string]bool{}
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			helps[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = f[3]
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		val, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
		if _, dup := samples[f[0]]; dup {
			t.Fatalf("metric %s emitted twice", f[0])
		}
		samples[f[0]] = val
	}

	// Every PromFields entry is present exactly once, with HELP and
	// TYPE comments; and vice versa.
	fields := PromFields()
	if len(samples) != len(fields) {
		t.Fatalf("output has %d samples, PromFields lists %d", len(samples), len(fields))
	}
	for _, f := range fields {
		if _, ok := samples[f.Name]; !ok {
			t.Errorf("declared metric %s missing from output", f.Name)
		}
		if !helps[f.Name] {
			t.Errorf("metric %s has no HELP line", f.Name)
		}
		if types[f.Name] != f.Type() {
			t.Errorf("metric %s has TYPE %q, want %q", f.Name, types[f.Name], f.Type())
		}
	}

	// Every exported Collector field maps to a sample carrying its
	// populated value.
	v := reflect.ValueOf(c).Elem()
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		raw := v.Field(i).Int()
		base := promNamespace + "_" + snakeCase(f.Name)
		var name string
		var want float64
		switch {
		case f.Type == reflect.TypeOf(time.Duration(0)):
			name = base + "_seconds"
			want = time.Duration(raw).Seconds()
		case promGaugeFields[f.Name]:
			name = base
			want = float64(raw)
		default:
			name = base + "_total"
			want = float64(raw)
		}
		got, ok := samples[name]
		if !ok {
			t.Errorf("Collector field %s has no sample %s", f.Name, name)
			continue
		}
		if got != want {
			t.Errorf("sample %s = %g, want %g", name, got, want)
		}
	}

	// MainQueuePeak must be a gauge, counters must end in _total.
	if types[promNamespace+"_main_queue_peak"] != "gauge" {
		t.Error("main_queue_peak is not exported as a gauge")
	}
	if types[promNamespace+"_real_dist_calcs_total"] != "counter" {
		t.Error("real_dist_calcs_total is not exported as a counter")
	}
}

func TestPromExportNilCollector(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsProm(&buf, nil); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || f[1] != "0" {
			t.Fatalf("nil collector sample %q, want value 0", line)
		}
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	c := populatedCollector(t)
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.Number
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("JSON export invalid: %v", err)
	}

	v := reflect.ValueOf(c).Elem()
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		got, ok := obj[f.Name]
		if !ok {
			t.Errorf("JSON export missing field %s", f.Name)
			continue
		}
		n, err := got.Int64()
		if err != nil || n != v.Field(i).Int() {
			t.Errorf("JSON field %s = %v, want %d", f.Name, got, v.Field(i).Int())
		}
	}
	for _, derived := range []string{"DistCalcs", "QueueInserts", "BufferHitRatio", "ResponseTime"} {
		if _, ok := obj[derived]; !ok {
			t.Errorf("JSON export missing derived field %s", derived)
		}
	}

	// Nil collector exports a valid all-zero object.
	buf.Reset()
	if err := WriteMetricsJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil collector JSON export invalid")
	}
}
