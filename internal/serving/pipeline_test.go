package serving

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distjoin"
)

// The tests in this file pin the request pipeline's contract once, for
// every POST route: what a body that does not decode gets, what a
// fuzzed request can do, and the write deadline an admitted request
// runs under.

// postRoutes are the six POST routes, each with a body that decodes and
// validates (the cursor routes name a cursor that does not exist).
var postRoutes = []struct{ path, valid string }{
	{"/v1/join/k", `{"left":"left","right":"right","k":5}`},
	{"/v1/join/closest", `{"index":"left","k":5}`},
	{"/v1/join/within", `{"left":"left","right":"right","max_dist":50,"limit":10}`},
	{"/v1/join/incremental", `{"left":"left","right":"right","page_size":5}`},
	{"/v1/join/incremental/next", `{"cursor":"c0ffee"}`},
	{"/v1/join/incremental/close", `{"cursor":"c0ffee"}`},
}

// malformedBodies are the five ways a body fails the pipeline's one
// decode step; every route must answer each the same way.
var malformedBodies = []struct{ name, body string }{
	{"empty", ""},
	{"malformed", "{"},
	{"unknown-field", `{"bogus":1}`},
	{"trailing-data", `{} {}`},
	{"too-large", "{" + strings.Repeat(" ", maxBodyBytes) + "}"},
}

// post runs one raw POST through the server's handler.
func post(s *Server, w http.ResponseWriter, path, body string) {
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
}

// TestMalformedBodies: a body that does not decode is a 400 with a JSON
// error body and a query ID on every route, is logged once under that
// ID, holds nothing afterwards and is not a server failure.
func TestMalformedBodies(t *testing.T) {
	var logBuf syncBuffer
	s, _, _, _ := testServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	for _, route := range postRoutes {
		for _, bad := range malformedBodies {
			logged := len(logBuf.String())
			rec := httptest.NewRecorder()
			post(s, rec, route.path, bad.body)
			name := route.path + " " + bad.name
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s: body %q is not a JSON error", name, rec.Body)
			}
			qid := rec.Header().Get("X-Distjoin-Query-Id")
			if qid == "" {
				t.Errorf("%s: no X-Distjoin-Query-Id header", name)
			}
			var line struct {
				QueryID string `json:"query_id"`
				Status  int    `json:"status"`
			}
			lines := strings.TrimSpace(logBuf.String()[logged:])
			if err := json.Unmarshal([]byte(lines), &line); err != nil {
				t.Errorf("%s: want exactly one log record, got %q", name, lines)
			} else if line.QueryID != qid || line.Status != http.StatusBadRequest {
				t.Errorf("%s: log record %+v, want query_id %q status 400", name, line, qid)
			}
			if n, q := s.gate.inFlight(), s.gate.queued(); n != 0 || q != 0 {
				t.Errorf("%s: inFlight=%d queued=%d afterwards, want 0/0", name, n, q)
			}
		}
	}
	if n := s.metrics.Snapshot().Counters[distjoin.ServingFailed]; n != 0 {
		t.Errorf("failed_total = %d after malformed bodies, want 0", n)
	}
}

// fuzzStatuses is the canonical status table (docs/serving.md).
var fuzzStatuses = map[int]bool{200: true, 400: true, 404: true, 429: true, 499: true, 500: true, 503: true, 504: true}

// FuzzEndpoint throws a route, a query string and a body at the
// pipeline: whatever arrives, the server answers with a status from the
// table and a JSON body, and holds no slot, no queue place and no more
// than MaxCursors cursors once it has answered.
func FuzzEndpoint(f *testing.F) {
	const maxCursors = 4
	s := New(Config{
		MaxK:            64,
		MaxCursors:      maxCursors,
		DefaultDeadline: 100 * time.Millisecond,
		MaxDeadline:     100 * time.Millisecond,
	})
	f.Cleanup(s.Close)
	for name, seed := range map[string]int64{"left": 11, "right": 13} {
		idx, err := distjoin.NewIndex(testObjects(seed, 200), nil)
		if err != nil {
			f.Fatal(err)
		}
		if err := s.AddIndex(name, idx); err != nil {
			f.Fatal(err)
		}
	}
	h := s.Handler()
	for i, route := range postRoutes {
		f.Add(uint8(i), "", []byte(route.valid))
		f.Add(uint8(i), "explain=1", []byte(route.valid))
	}
	for i, bad := range malformedBodies {
		f.Add(uint8(i), "", []byte(bad.body))
	}
	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		req := httptest.NewRequest(http.MethodPost, postRoutes[int(route)%len(postRoutes)].path, bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !fuzzStatuses[rec.Code] {
			t.Errorf("status %d is not in the status table", rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("status %d body is not JSON: %q", rec.Code, rec.Body)
		}
		if n, q := s.gate.inFlight(), s.gate.queued(); n != 0 || q != 0 {
			t.Errorf("inFlight=%d queued=%d after the response, want 0/0", n, q)
		}
		if open := s.cursors.open(); open > maxCursors {
			t.Errorf("%d cursors open, budget %d", open, maxCursors)
		}
	})
}

// deadlineRecorder is a ResponseWriter that records the write deadlines
// set on it, as a real connection's writer accepts them.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	deadlines []time.Time
}

func (d *deadlineRecorder) SetWriteDeadline(t time.Time) error {
	d.deadlines = append(d.deadlines, t)
	return nil
}

// TestWriteDeadline: an admitted request writes its response under its
// own deadline plus writeGrace, so a client that stops reading cannot
// hold the execution slot; a request that fails before admission has no
// deadline to apply.
func TestWriteDeadline(t *testing.T) {
	const budget = 10 * time.Second
	s, _, _, _ := testServer(t, Config{DefaultDeadline: budget})
	serveDeadline := func(path, body string, code int) (*deadlineRecorder, time.Time, time.Time) {
		t.Helper()
		rec := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
		before := time.Now()
		post(s, rec, path, body)
		after := time.Now()
		if rec.Code != code {
			t.Fatalf("%s: status %d, want %d: %s", path, rec.Code, code, rec.Body)
		}
		return rec, before, after
	}

	// A blocking join's deadline is "now + budget" taken inside the
	// server: bracket it.
	rec, before, after := serveDeadline("/v1/join/k", `{"left":"left","right":"right","k":5}`, 200)
	if len(rec.deadlines) != 1 {
		t.Fatalf("join: %d write deadlines set, want 1", len(rec.deadlines))
	}
	if got := rec.deadlines[0]; got.Before(before.Add(budget+writeGrace)) || got.After(after.Add(budget+writeGrace)) {
		t.Errorf("join: write deadline %v, want request time + %v", got.Sub(before), budget+writeGrace)
	}

	// A cursor's deadline is kept on the cursor: the open and every page
	// are written under exactly that plus the grace.
	rec, _, _ = serveDeadline("/v1/join/incremental", `{"left":"left","right":"right","page_size":5}`, 200)
	var open incrementalJSON
	decodeInto(t, rec.Body.Bytes(), &open)
	cur, ok := s.cursors.get(open.Cursor, time.Now())
	if !ok {
		t.Fatal("open: cursor not registered")
	}
	want := cur.deadline.Add(writeGrace)
	if len(rec.deadlines) != 1 || !rec.deadlines[0].Equal(want) {
		t.Errorf("open: write deadlines %v, want [%v]", rec.deadlines, want)
	}
	rec, _, _ = serveDeadline("/v1/join/incremental/next", `{"cursor":"`+open.Cursor+`","page_size":5}`, 200)
	if len(rec.deadlines) != 1 || !rec.deadlines[0].Equal(want) {
		t.Errorf("next: write deadlines %v, want [%v]", rec.deadlines, want)
	}

	rec, _, _ = serveDeadline("/v1/join/k", `{"left":"nope","right":"right","k":5}`, 404)
	if len(rec.deadlines) != 0 {
		t.Errorf("404 before admission: write deadlines %v, want none", rec.deadlines)
	}
}

// TestSharedCursorPages: clients pulling pages from one cursor at once
// each get their own page's dist-calcs and compensation stages on their
// record — the records add up to what the cursor's collector counted —
// and nothing races the collector (run with -race).
func TestSharedCursorPages(t *testing.T) {
	var logBuf syncBuffer
	s, _, _, _ := testServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	rec := httptest.NewRecorder()
	post(s, rec, "/v1/join/incremental", `{"left":"left","right":"right","page_size":10,"batch_k":16}`)
	var open incrementalJSON
	decodeInto(t, rec.Body.Bytes(), &open)
	cur, ok := s.cursors.get(open.Cursor, time.Now())
	if !ok {
		t.Fatalf("open: %d: %s", rec.Code, rec.Body)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rec := httptest.NewRecorder()
				post(s, rec, "/v1/join/incremental/next", `{"cursor":"`+open.Cursor+`","page_size":10}`)
				if rec.Code != http.StatusOK {
					t.Errorf("next: %d: %s", rec.Code, rec.Body)
				}
			}
		}()
	}
	wg.Wait()
	var sum, stages int64
	for _, l := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var line struct {
			Index      string `json:"index"`
			DistCalcs  int64  `json:"dist_calcs"`
			CompStages int64  `json:"comp_stages"`
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatal(err)
		}
		if line.Index != "left,right" {
			t.Errorf("record index %q, want left,right: %s", line.Index, l)
		}
		sum += line.DistCalcs
		stages += line.CompStages
	}
	if total := cur.st.DistCalcs(); sum != total || total == 0 {
		t.Errorf("the 21 records' dist_calcs add up to %d, the cursor's collector counted %d", sum, total)
	}
	if total := cur.st.CompensationStages; stages != total || total == 0 {
		t.Errorf("the 21 records' comp_stages add up to %d, the cursor's collector counted %d", stages, total)
	}
}
