package obsrv

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"distjoin/internal/metrics"
	"distjoin/internal/trace"
)

// Strict lint of the Prometheus text exposition format (version 0.0.4)
// as emitted by Registry.WriteProm and trace.WriteMetricsProm: every
// family must be announced by a `# HELP` line immediately followed by
// `# TYPE`, all samples of a family must be contiguous, metric and
// label names must match the exposition charsets, label values must be
// correctly escaped, histogram `le` buckets must be ascending and
// cumulative with the `+Inf` bucket equal to `_count`, and no series
// (name + label set) may repeat.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	helpRe       = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe       = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

type promFamily struct {
	name    string
	typ     string
	samples []promSample
}

// parsePromStrict parses text, failing on any lint violation.
func parsePromStrict(t *testing.T, text string) []promFamily {
	t.Helper()
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "" {
		t.Fatalf("exposition does not end with a newline")
	}
	lines = lines[:len(lines)-1]

	var fams []promFamily
	seenFamily := map[string]bool{}
	seenSeries := map[string]int{}
	var cur *promFamily
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		lineNo := i + 1
		switch {
		case line == "":
			t.Fatalf("line %d: blank line in exposition", lineNo)
		case strings.HasPrefix(line, "# HELP "):
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed HELP line %q", lineNo, line)
			}
			name := m[1]
			if seenFamily[name] {
				t.Fatalf("line %d: family %q announced twice", lineNo, name)
			}
			seenFamily[name] = true
			if i+1 >= len(lines) {
				t.Fatalf("line %d: HELP not followed by TYPE", lineNo)
			}
			tm := typeRe.FindStringSubmatch(lines[i+1])
			if tm == nil {
				t.Fatalf("line %d: HELP for %q not followed by a valid TYPE line (got %q)", lineNo, name, lines[i+1])
			}
			if tm[1] != name {
				t.Fatalf("line %d: TYPE names %q, HELP names %q", lineNo+1, tm[1], name)
			}
			i++ // consume TYPE
			fams = append(fams, promFamily{name: name, typ: tm[2]})
			cur = &fams[len(fams)-1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		default:
			s, err := parseSampleLine(line)
			if err != nil {
				t.Fatalf("line %d: %v", lineNo, err)
			}
			s.line = lineNo
			if cur == nil {
				t.Fatalf("line %d: sample %q before any HELP/TYPE", lineNo, line)
			}
			if !sampleBelongs(s.name, cur) {
				t.Fatalf("line %d: sample %q outside its family (current family %q) — families must be contiguous", lineNo, s.name, cur.name)
			}
			key := s.name + "|" + canonicalLabels(s.labels)
			if prev, dup := seenSeries[key]; dup {
				t.Fatalf("line %d: duplicate series %q (first at line %d)", lineNo, key, prev)
			}
			seenSeries[key] = lineNo
			cur.samples = append(cur.samples, s)
		}
	}
	for _, f := range fams {
		if len(f.samples) == 0 {
			t.Fatalf("family %q has HELP/TYPE but no samples", f.name)
		}
		if f.typ == "histogram" {
			lintHistogramFamily(t, f)
		}
	}
	return fams
}

func sampleBelongs(sample string, f *promFamily) bool {
	if sample == f.name {
		return true
	}
	if f.typ == "histogram" {
		return sample == f.name+"_bucket" || sample == f.name+"_sum" || sample == f.name+"_count"
	}
	return false
}

func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	// insertion sort; tiny maps
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// parseSampleLine parses `name{label="value",...} value` strictly.
func parseSampleLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 {
		nameEnd = brace
	} else {
		nameEnd = strings.IndexByte(rest, ' ')
		if nameEnd < 0 {
			return s, fmt.Errorf("no value separator in %q", line)
		}
	}
	s.name = rest[:nameEnd]
	if !metricNameRe.MatchString(s.name) {
		return s, fmt.Errorf("invalid metric name %q", s.name)
	}
	rest = rest[nameEnd:]
	if brace >= 0 {
		end, err := parseLabels(rest, s.labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	if !strings.HasPrefix(rest, " ") {
		return s, fmt.Errorf("missing single-space separator before value in %q", line)
	}
	valStr := rest[1:]
	if valStr == "" || strings.ContainsAny(valStr, " \t") {
		return s, fmt.Errorf("malformed value %q", valStr)
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return s, fmt.Errorf("unparsable value %q: %v", valStr, err)
	}
	s.value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` block starting at rest[0] == '{',
// returning the index just past the closing brace.
func parseLabels(rest string, out map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(rest) {
			return 0, errors.New("unterminated label block")
		}
		if rest[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label without '=' in %q", rest[i:])
		}
		name := rest[i : i+eq]
		if !labelNameRe.MatchString(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return 0, fmt.Errorf("label %q value not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(rest) {
				return 0, fmt.Errorf("unterminated label value for %q", name)
			}
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return 0, errors.New("dangling escape")
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("invalid escape \\%c in label %q", rest[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			if c == '\n' {
				return 0, errors.New("raw newline in label value")
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("duplicate label %q", name)
		}
		out[name] = val.String()
		if i < len(rest) && rest[i] == ',' {
			i++
		}
	}
}

// lintHistogramFamily checks, per label set (minus `le`): buckets
// ascending by le, cumulative counts nondecreasing, a final +Inf
// bucket equal to the _count sample.
func lintHistogramFamily(t *testing.T, f promFamily) {
	t.Helper()
	type series struct {
		les    []float64
		counts []float64
		sum    *float64
		count  *float64
	}
	bySeries := map[string]*series{}
	get := func(labels map[string]string) *series {
		rest := map[string]string{}
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		key := canonicalLabels(rest)
		sr := bySeries[key]
		if sr == nil {
			sr = &series{}
			bySeries[key] = sr
		}
		return sr
	}
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			leStr, ok := s.labels["le"]
			if !ok {
				t.Fatalf("line %d: %s_bucket without le label", s.line, f.name)
			}
			var le float64
			if leStr == "+Inf" {
				le = math.Inf(1)
			} else {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("line %d: unparsable le %q", s.line, leStr)
				}
				le = v
			}
			sr := get(s.labels)
			sr.les = append(sr.les, le)
			sr.counts = append(sr.counts, s.value)
		case f.name + "_sum":
			v := s.value
			get(s.labels).sum = &v
		case f.name + "_count":
			v := s.value
			get(s.labels).count = &v
		default:
			t.Fatalf("line %d: unexpected sample %q in histogram family %q", s.line, s.name, f.name)
		}
	}
	for key, sr := range bySeries {
		if len(sr.les) == 0 {
			t.Fatalf("histogram %q{%s} has no buckets", f.name, key)
		}
		if sr.sum == nil || sr.count == nil {
			t.Fatalf("histogram %q{%s} missing _sum or _count", f.name, key)
		}
		for i := 1; i < len(sr.les); i++ {
			if !(sr.les[i] > sr.les[i-1]) {
				t.Fatalf("histogram %q{%s}: le not ascending at %v", f.name, key, sr.les)
			}
			if sr.counts[i] < sr.counts[i-1] {
				t.Fatalf("histogram %q{%s}: bucket counts not cumulative: %v", f.name, key, sr.counts)
			}
		}
		if !math.IsInf(sr.les[len(sr.les)-1], 1) {
			t.Fatalf("histogram %q{%s}: last bucket le=%v, want +Inf", f.name, key, sr.les[len(sr.les)-1])
		}
		if got := sr.counts[len(sr.counts)-1]; got != *sr.count {
			t.Fatalf("histogram %q{%s}: +Inf bucket %v != _count %v", f.name, key, got, *sr.count)
		}
	}
}

// populatedRegistry builds a registry with live and completed queries
// across several algorithms, exercising every exported family —
// including a label value that needs escaping.
func populatedRegistry() *Registry {
	r := NewRegistry()
	mc := &metrics.Collector{}
	mc.AddRealDist(123)
	mc.AddAxisDist(45)
	mc.AddMainQueueInsert(67)
	mc.NodeAccess(true, 0)

	q := r.Begin("AM-KDJ", 100)
	q.SetStage("aggressive")
	q.SetEDmax(1.25)
	q.RecordEstimate(1.25, 1.5, ModeInitial)
	q.End(mc, nil)

	q2 := r.Begin("AM-IDJ", 1000)
	q2.RecordEstimate(2.0, 1.0, ModeArithmetic)
	q2.RecordEstimate(0.5, 1.0, ModeGeometric)
	q2.End(mc, errors.New("boom"))

	// Label escaping: algorithm names are caller-controlled strings.
	q3 := r.Begin(`evil"algo\with`+"\n", 1)
	q3.End(nil, nil)

	// One query left in flight.
	live := r.Begin("B-KDJ", 10)
	live.SetStage("sweep")
	live.SetQueueDepth(10, 5, 1)

	// Serving-layer families, including a family label that needs
	// escaping and a gauge provider so every distjoin_serving_* family
	// gets samples.
	sm := r.Serving()
	sm.ObserveRequest("join/k", 5*time.Millisecond, 120*time.Microsecond)
	sm.ObserveRequest("incremental/open", time.Millisecond, 0)
	sm.ObserveRequest(`odd"family`+"\n", time.Second, time.Millisecond)
	for c := ServingCounter(0); c < numServingCounters; c++ {
		sm.Inc(c)
	}
	sm.SetGauges(func() ServingGauges {
		return ServingGauges{InFlight: 2, Queued: 1, OpenCursors: 3, Draining: true}
	})
	return r
}

func TestPromExpositionLint(t *testing.T) {
	var buf bytes.Buffer
	if err := populatedRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parsePromStrict(t, buf.String())

	// want is the reviewed contract of the registry's own families: a
	// family added, renamed, retyped or dropped in obsrv must change
	// this map in the same commit. The Collector families are generated
	// from trace.PromFields and checked against it below.
	want := map[string]string{
		"distjoin_registry_uptime_seconds":    "gauge",
		"distjoin_inflight_queries":           "gauge",
		"distjoin_queries_total":              "counter",
		"distjoin_query_errors_total":         "counter",
		"distjoin_query_latency_seconds":      "histogram",
		"distjoin_query_dist_calcs":           "histogram",
		"distjoin_query_queue_inserts":        "histogram",
		"distjoin_edmax_estimate_ratio":       "histogram",
		"distjoin_edmax_corrections_total":    "counter",
		"distjoin_edmax_underestimates_total": "counter",
		"distjoin_edmax_overestimates_total":  "counter",

		"distjoin_serving_requests_total":          "counter",
		"distjoin_serving_request_latency_seconds": "histogram",
		"distjoin_serving_admission_wait_seconds":  "histogram",
		"distjoin_serving_shed_total":              "counter",
		"distjoin_serving_rejected_draining_total": "counter",
		"distjoin_serving_deadline_exceeded_total": "counter",
		"distjoin_serving_client_gone_total":       "counter",
		"distjoin_serving_failed_total":            "counter",
		"distjoin_serving_slow_queries_total":      "counter",
		"distjoin_serving_cursors_opened_total":    "counter",
		"distjoin_serving_cursors_expired_total":   "counter",
		"distjoin_serving_inflight_queries":        "gauge",
		"distjoin_serving_queued_requests":         "gauge",
		"distjoin_serving_open_cursors":            "gauge",
		"distjoin_serving_draining":                "gauge",
	}
	// Every trace.PromFields family must appear, with its type.
	for _, pf := range trace.PromFields() {
		if _, dup := want[pf.Name]; dup {
			t.Errorf("collector family %s is also listed as a registry family", pf.Name)
		}
		want[pf.Name] = pf.Type()
	}
	// Both directions: every emitted family is in the contract with
	// its type, and every contract entry is emitted.
	got := map[string]string{}
	for _, f := range fams {
		got[f.name] = f.typ
		if typ, ok := want[f.name]; !ok {
			t.Errorf("family %s (%s) is emitted but not in the contract", f.name, f.typ)
		} else if typ != f.typ {
			t.Errorf("family %s: type %q, want %q", f.name, f.typ, typ)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("contract family %s is not emitted", name)
		}
	}

	// The escaped algo label must round-trip through the strict parser.
	found := false
	for _, f := range fams {
		if f.name != "distjoin_queries_total" {
			continue
		}
		for _, s := range f.samples {
			if s.labels["algo"] == "evil\"algo\\with\n" {
				found = true
			}
		}
	}
	if !found {
		t.Error("escaped algo label did not survive the exposition round-trip")
	}
}

// TestPerQueryPromExpositionLint runs the same strict lint over the
// PR 2 per-query exporter, so both exposition surfaces stay valid.
func TestPerQueryPromExpositionLint(t *testing.T) {
	mc := &metrics.Collector{}
	mc.AddRealDist(5)
	mc.BufferAccess(true, 0)
	mc.BufferAccess(false, 1)
	var buf bytes.Buffer
	if err := trace.WriteMetricsProm(&buf, mc); err != nil {
		t.Fatal(err)
	}
	parsePromStrict(t, buf.String())
}
