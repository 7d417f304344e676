package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"distjoin"
)

// The tests in this file pin the serving layer's telemetry surfaces as
// whole strings — the /v1/stats body, the serving block of
// /debug/vars, the request-log line and the /debug/slowlog entry — and
// check that the surfaces that count the same event agree. Requests go
// straight into the handler (no listener), so each one has been fully
// recorded, deferred telemetry included, when serve returns.

// serve runs one request through the server's handler and returns the
// recorded response.
func serve(t *testing.T, s *Server, ctx context.Context, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// statusRow is one row of the canonical status table (docs/serving.md)
// as a scripted request.
type statusRow struct {
	status int
	// stats and prom name the /v1/stats key and the /metrics sample
	// that count this row's event; empty where the surface has none.
	stats, prom string
	// before arranges the server state the row needs.
	before func()
	ctx    context.Context
	path   string
	body   any
	// after undoes before.
	after func()
}

// statusScript returns one request per row of the status table, in an
// order a single server can play: the three rows that need the only
// execution slot held run back to back, and draining comes last
// because nothing is admitted after it. s must have been built with
// MaxInFlight 1 and MaxQueued 1.
func statusScript(t *testing.T, s *Server) []statusRow {
	bg := context.Background()
	gone, cancel := context.WithCancel(bg)
	cancel()
	join := kDistanceRequest{Left: "left", Right: "right", K: 5}
	return []statusRow{
		{status: 200, stats: "accepted_total", path: "/v1/join/k", body: join},
		{status: 400, path: "/v1/join/k", body: kDistanceRequest{Left: "left", Right: "right"}},
		{status: 404, path: "/v1/join/k", body: kDistanceRequest{Left: "nope", Right: "right", K: 5}},
		{
			status: 429, stats: "rejected_queue_full_total", prom: "distjoin_serving_shed_total",
			before: func() {
				if err := s.gate.acquire(bg); err != nil {
					t.Fatal(err)
				}
				s.gate.waiting <- struct{}{} // the one queue place is taken
			},
			path: "/v1/join/k", body: join,
			after: func() { <-s.gate.waiting },
		},
		{
			// The client is already gone when the request would have to
			// wait for the held slot.
			status: 499, stats: "client_gone_total", prom: "distjoin_serving_client_gone_total",
			ctx: gone, path: "/v1/join/k", body: join,
		},
		{
			// The deadline passes while the request waits for the slot.
			status: 504, stats: "deadline_exceeded_total", prom: "distjoin_serving_deadline_exceeded_total",
			path: "/v1/join/k", body: kDistanceRequest{Left: "left", Right: "right", K: 5, DeadlineMS: 20},
			after: s.gate.release,
		},
		{
			// A registered cursor whose iterator is already closed: the
			// page pull fails with an error no table row names.
			status: 500, stats: "failed_total", prom: "distjoin_serving_failed_total",
			before: func() {
				cur := &cursor{id: "c0ffee", deadline: time.Now().Add(time.Minute), closed: true}
				if err := s.cursors.add(cur, time.Now()); err != nil {
					t.Fatal(err)
				}
			},
			path: "/v1/join/incremental/next", body: incrementalNextRequest{Cursor: "c0ffee"},
		},
		{
			status: 503, stats: "rejected_draining_total", prom: "distjoin_serving_rejected_draining_total",
			before: func() {
				if err := s.Shutdown(bg); err != nil {
					t.Fatal(err)
				}
			},
			path: "/v1/join/k", body: join,
		},
	}
}

// play runs one scripted row and checks its status.
func (row statusRow) play(t *testing.T, s *Server) {
	t.Helper()
	if row.before != nil {
		row.before()
	}
	ctx := row.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rec := serve(t, s, ctx, http.MethodPost, row.path, row.body)
	if row.after != nil {
		row.after()
	}
	if rec.Code != row.status {
		t.Fatalf("%s: status %d, want %d: %s", row.path, rec.Code, row.status, rec.Body)
	}
}

func scriptedServer(t *testing.T, reg *distjoin.Registry) *Server {
	s, _, _, _ := testServer(t, Config{MaxInFlight: 1, MaxQueued: 1, Registry: reg})
	return s
}

// statsBodyAfterScript is the /v1/stats body once statusScript has
// played: two requests got a slot (the 200 and the 500), every error
// row counted once.
const statsBodyAfterScript = `{"in_flight":0,"queued":0,"open_cursors":0,"accepted_total":2,"rejected_queue_full_total":1,"rejected_draining_total":1,"deadline_exceeded_total":1,"client_gone_total":1,"failed_total":1,"draining":true}` + "\n"

// histogramValuesRE matches the parts of a rendered histogram that
// depend on the wall clock.
var histogramValuesRE = regexp.MustCompile(`"counts": \[[^\]]*\]|"sum": [^,\n]+`)

// TestStatusScriptGolden pins /v1/stats and the serving block of
// /debug/vars byte for byte after one request per status-table row.
func TestStatusScriptGolden(t *testing.T) {
	s := scriptedServer(t, distjoin.NewRegistry())
	for _, row := range statusScript(t, s) {
		row.play(t, s)
	}
	bg := context.Background()
	if got := serve(t, s, bg, http.MethodGet, "/v1/stats", nil).Body.String(); got != statsBodyAfterScript {
		t.Errorf("/v1/stats:\n got %s\nwant %s", got, statsBodyAfterScript)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(serve(t, s, bg, http.MethodGet, "/debug/vars", nil).Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	got := histogramValuesRE.ReplaceAllStringFunc(string(vars["serving"]), func(m string) string {
		return m[:strings.Index(m, ":")] + `: "<clock>"`
	})
	want, err := os.ReadFile("testdata/debugvars_serving.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/debug/vars serving block differs from testdata/debugvars_serving.golden; got:\n%s", got)
	}
}

// promSampleValue returns the value of the unlabeled sample name in a
// /metrics body.
func promSampleValue(t *testing.T, metrics, name string) string {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return ""
}

// TestStatsAndMetricsAgree: /v1/stats and /metrics count the same
// serving events, so after every row of the status table the two
// surfaces must report the same number for that row's event — and
// /v1/stats must count every row just the same when the server has no
// registry to scrape.
func TestStatsAndMetricsAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *distjoin.Registry
	}{
		{"registry", distjoin.NewRegistry()},
		{"no-registry", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := scriptedServer(t, tc.reg)
			bg := context.Background()
			for _, row := range statusScript(t, s) {
				row.play(t, s)
				if row.prom == "" {
					continue
				}
				var stats map[string]any
				if err := json.Unmarshal(serve(t, s, bg, http.MethodGet, "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
					t.Fatal(err)
				}
				if stats[row.stats] != 1.0 {
					t.Errorf("after the %d row: /v1/stats %s = %v, want 1", row.status, row.stats, stats[row.stats])
				}
				if tc.reg == nil {
					continue
				}
				metrics := serve(t, s, bg, http.MethodGet, "/metrics", nil).Body.String()
				if v := promSampleValue(t, metrics, row.prom); v != "1" {
					t.Errorf("after the %d row: /metrics %s = %s, /v1/stats %s = 1", row.status, row.prom, v, row.stats)
				}
			}
			if got := serve(t, s, bg, http.MethodGet, "/v1/stats", nil).Body.String(); got != statsBodyAfterScript {
				t.Errorf("/v1/stats after the script:\n got %s\nwant %s", got, statsBodyAfterScript)
			}
		})
	}
}

// clockValuesRE matches the two request-record values that depend on
// the wall clock.
var clockValuesRE = regexp.MustCompile(`"(admission_wait_us|elapsed_ms)":[^,}]+`)

// nextDeadlineRE matches the deadline budget of an incremental/next
// record: what was left of the cursor's lifetime when the page was
// asked for.
var nextDeadlineRE = regexp.MustCompile(`("family":"incremental/next"[^}]*"deadline_ms":)\d+`)

// TestRequestRecordGolden pins the request log line and the
// /debug/slowlog entry byte for byte — keys, their order, value types,
// and which keys the slow log omits when empty — for one served and
// one rejected request, and for a cursor's open and next page, whose
// dist_calcs and comp_stages are each page's own: what the cursor's
// collector counted over that pull.
func TestRequestRecordGolden(t *testing.T) {
	var logBuf syncBuffer
	dropTime := func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}
	s, _, _, _ := testServer(t, Config{
		Registry:           distjoin.NewRegistry(),
		Logger:             slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{ReplaceAttr: dropTime})),
		SlowQueryThreshold: time.Nanosecond, // every request is slow
	})
	s.qidPrefix = "pin"
	bg := context.Background()
	if rec := serve(t, s, bg, http.MethodPost, "/v1/join/k", kDistanceRequest{Left: "left", Right: "right", K: 5}); rec.Code != 200 {
		t.Fatalf("query: %d: %s", rec.Code, rec.Body)
	}
	if rec := serve(t, s, bg, http.MethodPost, "/v1/join/k", kDistanceRequest{Left: "nope", Right: "right", K: 5}); rec.Code != 404 {
		t.Fatalf("unknown dataset: %d: %s", rec.Code, rec.Body)
	}
	rec := serve(t, s, bg, http.MethodPost, "/v1/join/incremental",
		incrementalOpenRequest{Left: "left", Right: "right", PageSize: 20, BatchK: 16})
	var open incrementalJSON
	decodeInto(t, rec.Body.Bytes(), &open)
	cur, ok := s.cursors.get(open.Cursor, time.Now())
	if !ok {
		t.Fatalf("open: %d: %s", rec.Code, rec.Body)
	}
	firstPage := cur.st.DistCalcs() // no pull is running: the cursor is idle between requests
	if rec := serve(t, s, bg, http.MethodPost, "/v1/join/incremental/next",
		incrementalNextRequest{Cursor: open.Cursor, PageSize: 20}); rec.Code != 200 {
		t.Fatalf("next: %d: %s", rec.Code, rec.Body)
	}
	if first, second := firstPage, cur.st.DistCalcs()-firstPage; first != 10119 || second != 9572 {
		t.Errorf("the cursor's collector counted %d dist-calcs over the open and %d over the next page; the records below say 10119 and 9572", first, second)
	}
	mask := func(b string) string {
		b = clockValuesRE.ReplaceAllString(b, `"$1":"<clock>"`)
		return nextDeadlineRE.ReplaceAllString(b, `$1"<clock>"`)
	}

	const wantLog = `{"level":"WARN","msg":"request","query_id":"pin-1","family":"join/k","index":"left,right","k":5,"status":200,"admission_wait_us":"<clock>","queue_depth_at_entry":0,"deadline_ms":30000,"elapsed_ms":"<clock>","dist_calcs":9074,"comp_stages":0,"edmax_mode":"initial","results":5,"slow":true,"error":""}
{"level":"WARN","msg":"request","query_id":"pin-2","family":"join/k","index":"nope,right","k":5,"status":404,"admission_wait_us":"<clock>","queue_depth_at_entry":0,"deadline_ms":0,"elapsed_ms":"<clock>","dist_calcs":0,"comp_stages":0,"edmax_mode":"","results":0,"slow":true,"error":"left: unknown dataset \"nope\""}
{"level":"WARN","msg":"request","query_id":"pin-3","family":"incremental/open","index":"left,right","k":0,"status":200,"admission_wait_us":"<clock>","queue_depth_at_entry":0,"deadline_ms":30000,"elapsed_ms":"<clock>","dist_calcs":10119,"comp_stages":0,"edmax_mode":"initial","results":20,"slow":true,"error":""}
{"level":"WARN","msg":"request","query_id":"pin-4","family":"incremental/next","index":"left,right","k":0,"status":200,"admission_wait_us":"<clock>","queue_depth_at_entry":0,"deadline_ms":"<clock>","elapsed_ms":"<clock>","dist_calcs":9572,"comp_stages":1,"edmax_mode":"initial","results":20,"slow":true,"error":""}
`
	if got := mask(logBuf.String()); got != wantLog {
		t.Errorf("request log:\n got %s\nwant %s", got, wantLog)
	}

	const wantSlow = `{"threshold_ms":0,"entries":[{"query_id":"pin-1","family":"join/k","index":"left,right","k":5,"status":200,"admission_wait_us":"<clock>","queue_depth_at_entry":0,"deadline_ms":30000,"elapsed_ms":"<clock>","dist_calcs":9074,"comp_stages":0,"edmax_mode":"initial","results":5},{"query_id":"pin-2","family":"join/k","index":"nope,right","k":5,"status":404,"admission_wait_us":"<clock>","queue_depth_at_entry":0,"deadline_ms":0,"elapsed_ms":"<clock>","dist_calcs":0,"comp_stages":0,"results":0,"error":"left: unknown dataset \"nope\""},{"query_id":"pin-3","family":"incremental/open","index":"left,right","status":200,"admission_wait_us":"<clock>","queue_depth_at_entry":0,"deadline_ms":30000,"elapsed_ms":"<clock>","dist_calcs":10119,"comp_stages":0,"edmax_mode":"initial","results":20},{"query_id":"pin-4","family":"incremental/next","index":"left,right","status":200,"admission_wait_us":"<clock>","queue_depth_at_entry":0,"deadline_ms":"<clock>","elapsed_ms":"<clock>","dist_calcs":9572,"comp_stages":1,"edmax_mode":"initial","results":20}]}
`
	if got := mask(serve(t, s, bg, http.MethodGet, "/debug/slowlog", nil).Body.String()); got != wantSlow {
		t.Errorf("/debug/slowlog:\n got %s\nwant %s", got, wantSlow)
	}
}
