package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/rtree"
)

// testObjects builds n point-ish objects, mixing a few clusters with
// a uniform background so every query family has interesting answers.
func testObjects(seed int64, n int) []distjoin.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]distjoin.Object, n)
	for i := range objs {
		var x, y float64
		if i%3 == 0 {
			cx, cy := float64(rng.Intn(4))*2500, float64(rng.Intn(4))*2500
			x, y = cx+rng.NormFloat64()*300, cy+rng.NormFloat64()*300
		} else {
			x, y = rng.Float64()*10000, rng.Float64()*10000
		}
		objs[i] = distjoin.Object{ID: int64(i), Rect: distjoin.PointRect(x, y)}
	}
	return objs
}

// testServer builds a query server over two synthetic datasets and an
// httptest frontend. Returns the serving server, the datasets, and
// the base URL.
func testServer(t *testing.T, cfg Config) (*Server, *distjoin.Index, *distjoin.Index, *httptest.Server) {
	t.Helper()
	left, err := distjoin.NewIndex(testObjects(11, 900), nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := distjoin.NewIndex(testObjects(13, 1100), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.AddIndex("left", left); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex("right", right); err != nil {
		t.Fatal(err)
	}
	h := httptest.NewServer(s.Handler())
	t.Cleanup(h.Close)
	t.Cleanup(s.Close)
	return s, left, right, h
}

// postJSON posts body (marshalled) to url and returns the status and
// raw response body.
func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", url, err)
	}
	return resp.StatusCode, out
}

// drainBody fully reads and closes a response body so the HTTP client
// can reuse the connection.
func drainBody(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}

func decodeInto(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, b)
	}
}

// samePairs asserts server pairs equal facade pairs (IDs exact,
// distance to float64 round-trip precision).
func samePairs(t *testing.T, label string, got []pairJSON, want []distjoin.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Left != want[i].LeftID || got[i].Right != want[i].RightID ||
			math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
			t.Fatalf("%s: pair %d = %+v, want {%d %d %g}", label, i, got[i],
				want[i].LeftID, want[i].RightID, want[i].Dist)
		}
	}
}

// TestKDistanceDifferential: every algorithm served over HTTP returns
// exactly what the direct facade call returns.
func TestKDistanceDifferential(t *testing.T) {
	_, left, right, h := testServer(t, Config{})
	const k = 40

	oracle, err := distjoin.KDistanceJoin(left, right, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxDist := oracle[len(oracle)-1].Dist

	for _, name := range []string{"am", "b", "hs", "sj"} {
		opts := &distjoin.Options{}
		switch name {
		case "am":
			opts.Algorithm = distjoin.AMKDJ
		case "b":
			opts.Algorithm = distjoin.BKDJ
		case "hs":
			opts.Algorithm = distjoin.HSKDJ
		case "sj":
			opts.Algorithm = distjoin.SJSort
			opts.MaxDist = maxDist
		}
		want, err := distjoin.KDistanceJoin(left, right, k, opts)
		if err != nil {
			t.Fatalf("%s facade: %v", name, err)
		}
		req := kDistanceRequest{Left: "left", Right: "right", K: k, Algorithm: name}
		if name == "sj" {
			req.MaxDist = maxDist
		}
		code, body := postJSON(t, h.Client(), h.URL+"/v1/join/k", req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		var resp queryJSON
		decodeInto(t, body, &resp)
		samePairs(t, name, resp.Pairs, want)
		if resp.Stats.DistCalcs == 0 {
			t.Errorf("%s: stats not populated", name)
		}
	}
}

// TestKClosestAndWithinDifferential covers the self-join and
// within-predicate endpoints against direct facade calls.
func TestKClosestAndWithinDifferential(t *testing.T) {
	_, left, right, h := testServer(t, Config{})

	want, err := distjoin.KClosestPairs(left, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, h.Client(), h.URL+"/v1/join/closest",
		kClosestRequest{Index: "left", K: 25})
	if code != http.StatusOK {
		t.Fatalf("closest: %d: %s", code, body)
	}
	var resp queryJSON
	decodeInto(t, body, &resp)
	samePairs(t, "closest", resp.Pairs, want)

	// Within: order is unspecified — compare as multisets of ID pairs.
	const dist = 120.0
	wantSet := map[[2]int64]int{}
	if err := distjoin.WithinJoin(left, right, dist, nil, func(p distjoin.Pair) bool {
		wantSet[[2]int64{p.LeftID, p.RightID}]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	code, body = postJSON(t, h.Client(), h.URL+"/v1/join/within",
		withinRequest{Left: "left", Right: "right", MaxDist: dist})
	if code != http.StatusOK {
		t.Fatalf("within: %d: %s", code, body)
	}
	var wresp queryJSON
	decodeInto(t, body, &wresp)
	if wresp.Truncated {
		t.Fatalf("within: unexpected truncation at %d pairs", len(wresp.Pairs))
	}
	if len(wresp.Pairs) != len(wantSet) {
		t.Fatalf("within: %d pairs, want %d", len(wresp.Pairs), len(wantSet))
	}
	for _, p := range wresp.Pairs {
		if wantSet[[2]int64{p.Left, p.Right}] != 1 {
			t.Fatalf("within: unexpected pair %+v", p)
		}
	}

	// Limit clamp: a limit below the result count truncates and says so.
	code, body = postJSON(t, h.Client(), h.URL+"/v1/join/within",
		withinRequest{Left: "left", Right: "right", MaxDist: dist, Limit: 3})
	if code != http.StatusOK {
		t.Fatalf("within limit: %d: %s", code, body)
	}
	decodeInto(t, body, &wresp)
	if len(wresp.Pairs) != 3 || !wresp.Truncated {
		t.Fatalf("within limit: %d pairs truncated=%v, want 3 truncated", len(wresp.Pairs), wresp.Truncated)
	}
}

// TestIncrementalPagination: pages pulled through the cursor API,
// resumed across requests, concatenate to exactly the one-shot
// incremental join's prefix.
func TestIncrementalPagination(t *testing.T) {
	_, left, right, h := testServer(t, Config{})
	const total, page = 137, 20

	// One-shot oracle: drive a direct facade iterator.
	it, err := distjoin.IncrementalJoin(left, right, &distjoin.Options{BatchK: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var want []distjoin.Pair
	for len(want) < total {
		p, ok := it.Next()
		if !ok {
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			break
		}
		want = append(want, p)
	}

	code, body := postJSON(t, h.Client(), h.URL+"/v1/join/incremental",
		incrementalOpenRequest{Left: "left", Right: "right", PageSize: page, BatchK: 16})
	if code != http.StatusOK {
		t.Fatalf("open: %d: %s", code, body)
	}
	var resp incrementalJSON
	decodeInto(t, body, &resp)
	if resp.Cursor == "" || resp.Done {
		t.Fatalf("open: cursor %q done %v, want live cursor", resp.Cursor, resp.Done)
	}
	if resp.DeadlineMS <= 0 {
		t.Fatalf("open: deadline_ms %d, want positive budget", resp.DeadlineMS)
	}
	got := resp.Pairs
	for len(got) < total {
		code, body = postJSON(t, h.Client(), h.URL+"/v1/join/incremental/next",
			incrementalNextRequest{Cursor: resp.Cursor, PageSize: page})
		if code != http.StatusOK {
			t.Fatalf("next at %d: %d: %s", len(got), code, body)
		}
		var next incrementalJSON
		decodeInto(t, body, &next)
		got = append(got, next.Pairs...)
		if next.Done {
			break
		}
		if next.Returned != int64(len(got)) {
			t.Fatalf("returned %d after %d pairs", next.Returned, len(got))
		}
	}
	if len(got) < total {
		t.Fatalf("paginated %d pairs, want >= %d", len(got), total)
	}
	samePairs(t, "pagination", got[:total], want)

	// Close is explicit and the cursor is gone afterwards.
	code, _ = postJSON(t, h.Client(), h.URL+"/v1/join/incremental/close",
		incrementalCloseRequest{Cursor: resp.Cursor})
	if code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}
	code, _ = postJSON(t, h.Client(), h.URL+"/v1/join/incremental/close",
		incrementalCloseRequest{Cursor: resp.Cursor})
	if code != http.StatusNotFound {
		t.Fatalf("double close: %d, want 404", code)
	}
	code, _ = postJSON(t, h.Client(), h.URL+"/v1/join/incremental/next",
		incrementalNextRequest{Cursor: resp.Cursor})
	if code != http.StatusNotFound {
		t.Fatalf("next after close: %d, want 404", code)
	}
}

// TestCursorPagesIndependentOfStageSize: a cursor's pages do not depend
// on its AM-IDJ stage size. On TIGER-like data, two pages drained with
// batch_k omitted (a stage of at least one page), 16, the page size and
// DefaultBatchK are byte for byte the B-KDJ answer at their total. The
// stage size moves only the work, which the pages' comp_stages records
// show: two 2 048-pair pages run 1 compensation stage with batch_k
// omitted and 3 at batch_k 1024 (197 at batch_k 16), and two 256-pair
// pages, which the default rule leaves at DefaultBatchK, run none
// either way.
func TestCursorPagesIndependentOfStageSize(t *testing.T) {
	objects := func(items []rtree.Item) []distjoin.Object {
		objs := make([]distjoin.Object, len(items))
		for i, it := range items {
			objs[i] = distjoin.Object{ID: it.Obj, Rect: it.Rect}
		}
		return objs
	}
	left, err := distjoin.NewIndex(objects(datagen.TigerStreets(1, 6000)), nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := distjoin.NewIndex(objects(datagen.TigerHydro(2, 2000)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	t.Cleanup(s.Close)
	for name, idx := range map[string]*distjoin.Index{"left": left, "right": right} {
		if err := s.AddIndex(name, idx); err != nil {
			t.Fatal(err)
		}
	}
	bg := context.Background()

	// drain opens a cursor, pulls its first two pages and closes it. It
	// returns the pages' pairs and the compensation stages their request
	// records report.
	drain := func(page, batchK int) ([]pairJSON, int64) {
		t.Helper()
		logged := len(logBuf.String())
		var open, next incrementalJSON
		decodeInto(t, serve(t, s, bg, http.MethodPost, "/v1/join/incremental",
			incrementalOpenRequest{Left: "left", Right: "right", PageSize: page, BatchK: batchK}).Body.Bytes(), &open)
		if open.Cursor == "" {
			t.Fatalf("page %d, batch_k %d: open returned no cursor", page, batchK)
		}
		decodeInto(t, serve(t, s, bg, http.MethodPost, "/v1/join/incremental/next",
			incrementalNextRequest{Cursor: open.Cursor, PageSize: page}).Body.Bytes(), &next)
		serve(t, s, bg, http.MethodPost, "/v1/join/incremental/close", incrementalCloseRequest{Cursor: open.Cursor})
		var stages int64
		for _, l := range strings.Split(strings.TrimSpace(logBuf.String()[logged:]), "\n") {
			var line struct {
				CompStages int64 `json:"comp_stages"`
			}
			decodeInto(t, []byte(l), &line)
			stages += line.CompStages
		}
		return append(open.Pairs, next.Pairs...), stages
	}

	for _, page := range []int{256, 2048} {
		want, err := distjoin.KDistanceJoin(left, right, 2*page, &distjoin.Options{Algorithm: distjoin.BKDJ})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(wirePairs(want))
		if err != nil {
			t.Fatal(err)
		}
		stages := map[int]int64{}
		for _, batchK := range []int{0, 16, page, distjoin.DefaultBatchK} {
			got, n := drain(page, batchK)
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("page %d, batch_k %d: %d pairs that are not B-KDJ's %d", page, batchK, len(got), len(want))
			}
			stages[batchK] = n
		}
		t.Logf("page %d: compensation stages by batch_k (0 = omitted): %v", page, stages)
		switch {
		case page <= distjoin.DefaultBatchK && stages[0] != stages[distjoin.DefaultBatchK]:
			t.Errorf("page %d: %d compensation stages with batch_k omitted, %d at batch_k %d; the default rule should not apply",
				page, stages[0], stages[distjoin.DefaultBatchK], distjoin.DefaultBatchK)
		case page > distjoin.DefaultBatchK && stages[0] >= stages[distjoin.DefaultBatchK]:
			t.Errorf("page %d: %d compensation stages with batch_k omitted, not fewer than the %d at batch_k %d",
				page, stages[0], stages[distjoin.DefaultBatchK], distjoin.DefaultBatchK)
		}
	}
}

// TestAdmissionControl is the saturation contract: with every
// execution slot held and the wait queue full, new queries are
// rejected immediately with 429; a queued query runs once a slot
// frees.
func TestAdmissionControl(t *testing.T) {
	s, _, _, h := testServer(t, Config{MaxInFlight: 1, MaxQueued: 1, DefaultDeadline: 5 * time.Second})

	// Deterministically saturate: take the only slot directly.
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	slotHeld := true
	defer func() {
		if slotHeld {
			s.gate.release()
		}
	}()

	// One query may wait in the queue.
	queued := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		code, body := postJSON(t, h.Client(), h.URL+"/v1/join/k",
			kDistanceRequest{Left: "left", Right: "right", K: 5})
		queued <- struct {
			code int
			body []byte
		}{code, body}
	}()
	// Wait until it is actually queued, so the next request sees a
	// full queue rather than racing for the waiter token.
	waitFor(t, time.Second, func() bool { return s.gate.queued() == 1 })

	// The queue is full: the next query must be shed with 429 now.
	start := time.Now()
	code, body := postJSON(t, h.Client(), h.URL+"/v1/join/k",
		kDistanceRequest{Left: "left", Right: "right", K: 5})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-admission: %d: %s, want 429", code, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("429 took %v; rejection must be immediate, not queued", d)
	}
	var e errorResponse
	decodeInto(t, body, &e)
	if !strings.Contains(e.Error, "queue full") {
		t.Fatalf("429 body %q does not explain the rejection", e.Error)
	}

	// Release the slot: the queued query must complete normally.
	s.gate.release()
	slotHeld = false
	select {
	case r := <-queued:
		if r.code != http.StatusOK {
			t.Fatalf("queued query: %d: %s", r.code, r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query never completed after slot release")
	}

	// Accounting: one accepted (the queued one), one rejected.
	st := getStats(t, h)
	if st.RejectedFull != 1 {
		t.Fatalf("rejected_queue_full_total = %d, want 1", st.RejectedFull)
	}
}

type statsResponse struct {
	InFlight     int   `json:"in_flight"`
	Queued       int   `json:"queued"`
	OpenCursors  int   `json:"open_cursors"`
	Accepted     int64 `json:"accepted_total"`
	RejectedFull int64 `json:"rejected_queue_full_total"`
	RejectedDown int64 `json:"rejected_draining_total"`
	Deadline     int64 `json:"deadline_exceeded_total"`
	Draining     bool  `json:"draining"`
}

func getStats(t *testing.T, h *httptest.Server) statsResponse {
	t.Helper()
	resp, err := h.Client().Get(h.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: %d: %s", resp.StatusCode, b)
	}
	var st statsResponse
	decodeInto(t, b, &st)
	return st
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineExpiry: a query whose deadline passes while it waits
// for a slot returns 504 — it does not hang and does not run.
func TestDeadlineWhileQueued(t *testing.T) {
	s, _, _, h := testServer(t, Config{MaxInFlight: 1, MaxQueued: 4})
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.release()

	code, body := postJSON(t, h.Client(), h.URL+"/v1/join/k",
		kDistanceRequest{Left: "left", Right: "right", K: 5, DeadlineMS: 30})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: %d: %s, want 504", code, body)
	}
	if st := getStats(t, h); st.Deadline != 1 {
		t.Fatalf("deadline_exceeded_total = %d, want 1", st.Deadline)
	}
}

// TestDeadlineMidQuery: a deadline expiring during execution aborts
// the engine run (the cancellation poll fires) and maps to 504.
func TestDeadlineMidQuery(t *testing.T) {
	_, _, _, h := testServer(t, Config{})
	// k large enough that the join cannot finish within 1ms; the
	// engine polls Options.Context and aborts.
	code, body := postJSON(t, h.Client(), h.URL+"/v1/join/k",
		kDistanceRequest{Left: "left", Right: "right", K: 50_000, DeadlineMS: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("mid-query deadline: %d: %s, want 504", code, body)
	}
}

// TestCursorExpiry: an expired cursor is swept and reads as unknown.
func TestCursorExpiry(t *testing.T) {
	s, _, _, h := testServer(t, Config{})
	code, body := postJSON(t, h.Client(), h.URL+"/v1/join/incremental",
		incrementalOpenRequest{Left: "left", Right: "right", PageSize: 5, DeadlineMS: 100})
	if code != http.StatusOK {
		t.Fatalf("open: %d: %s", code, body)
	}
	var resp incrementalJSON
	decodeInto(t, body, &resp)
	if resp.Cursor == "" {
		t.Fatal("no cursor")
	}
	cur, ok := s.cursors.get(resp.Cursor, time.Now())
	if !ok {
		t.Fatal("cursor not registered")
	}
	waitFor(t, time.Second, func() bool {
		_, ok := s.cursors.get(resp.Cursor, time.Now())
		return !ok
	})
	// The sweep closed the iterator with the join barely started: a
	// handler that still holds the cursor gets no pairs from it, and the
	// engine iterator underneath has stopped for good.
	if page, err := cur.pull(&reqTelemetry{}, 5); len(page.Pairs) != 0 || !page.Done || err == nil {
		t.Fatalf("pull on swept cursor: %d pairs, done=%v, err=%v", len(page.Pairs), page.Done, err)
	}
	if p, ok := cur.it.Next(); ok {
		t.Fatalf("closed cursor's iterator produced %+v", p)
	}
	code, body = postJSON(t, h.Client(), h.URL+"/v1/join/incremental/next",
		incrementalNextRequest{Cursor: resp.Cursor})
	if code != http.StatusNotFound {
		t.Fatalf("next on expired cursor: %d: %s, want 404", code, body)
	}
	if s.cursors.open() != 0 {
		t.Fatalf("%d cursors still open after expiry", s.cursors.open())
	}
}

// TestCursorBudget: the cursor table bounds open cursors with 429.
func TestCursorBudget(t *testing.T) {
	_, _, _, h := testServer(t, Config{MaxCursors: 2})
	open := func() (int, incrementalJSON) {
		code, body := postJSON(t, h.Client(), h.URL+"/v1/join/incremental",
			incrementalOpenRequest{Left: "left", Right: "right", PageSize: 1})
		var resp incrementalJSON
		if code == http.StatusOK {
			decodeInto(t, body, &resp)
		}
		return code, resp
	}
	for i := 0; i < 2; i++ {
		if code, resp := open(); code != http.StatusOK || resp.Cursor == "" {
			t.Fatalf("open %d failed: %d", i, code)
		}
	}
	if code, _ := open(); code != http.StatusTooManyRequests {
		t.Fatalf("third cursor: %d, want 429", code)
	}
}

// TestValidationErrors walks the 400/404 surface.
func TestValidationErrors(t *testing.T) {
	srv, _, _, h := testServer(t, Config{MaxK: 100})
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"unknown left", "/v1/join/k", kDistanceRequest{Left: "nope", Right: "right", K: 5}, 404},
		{"unknown right", "/v1/join/k", kDistanceRequest{Left: "left", Right: "nope", K: 5}, 404},
		{"bad algorithm", "/v1/join/k", kDistanceRequest{Left: "left", Right: "right", K: 5, Algorithm: "x"}, 400},
		{"k zero", "/v1/join/k", kDistanceRequest{Left: "left", Right: "right"}, 400},
		{"k over budget", "/v1/join/k", kDistanceRequest{Left: "left", Right: "right", K: 101}, 400},
		{"sj needs max_dist", "/v1/join/k", kDistanceRequest{Left: "left", Right: "right", K: 5, Algorithm: "sj"}, 400},
		{"removed field shards", "/v1/join/k", json.RawMessage(`{"left":"left","right":"right","k":5,"shards":4}`), 400},
		{"removed field parallelism", "/v1/join/closest", json.RawMessage(`{"index":"left","k":5,"parallelism":2}`), 400},
		{"negative max_dist", "/v1/join/within", withinRequest{Left: "left", Right: "right", MaxDist: -1}, 400},
		{"negative limit", "/v1/join/within", withinRequest{Left: "left", Right: "right", MaxDist: 1, Limit: -2}, 400},
		{"negative page", "/v1/join/incremental", incrementalOpenRequest{Left: "left", Right: "right", PageSize: -1}, 400},
		{"negative batch", "/v1/join/incremental", incrementalOpenRequest{Left: "left", Right: "right", BatchK: -1}, 400},
		{"closest unknown", "/v1/join/closest", kClosestRequest{Index: "nope", K: 5}, 404},
		{"empty names", "/v1/join/k", kDistanceRequest{K: 5}, 400},
	}
	for _, tc := range cases {
		code, body := postJSON(t, h.Client(), h.URL+tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: %d: %s, want %d", tc.name, code, body, tc.want)
		}
		var e errorResponse
		decodeInto(t, body, &e)
		if e.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	// A rejected request holds no execution slot and no queue place.
	if n, q := srv.gate.inFlight(), srv.gate.queued(); n != 0 || q != 0 {
		t.Errorf("after rejected requests: inFlight=%d queued=%d, want 0/0", n, q)
	}
	// Malformed JSON and unknown fields are 400s too.
	resp, err := h.Client().Post(h.URL+"/v1/join/k", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp.Body)
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON: %d, want 400", resp.StatusCode)
	}
	resp, err = h.Client().Post(h.URL+"/v1/join/k", "application/json",
		strings.NewReader(`{"left":"left","right":"right","k":5,"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp.Body)
	if resp.StatusCode != 400 {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}
}

// TestIndexesAndObservabilityEndpoints: dataset listing plus the
// mounted obsrv surface.
func TestIndexesAndObservabilityEndpoints(t *testing.T) {
	_, left, _, h := testServer(t, Config{Registry: distjoin.NewRegistry()})
	resp, err := h.Client().Get(h.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var idx struct {
		Indexes []struct {
			Name string `json:"name"`
			Len  int    `json:"len"`
		} `json:"indexes"`
	}
	decodeInto(t, b, &idx)
	if len(idx.Indexes) != 2 || idx.Indexes[0].Name != "left" || idx.Indexes[0].Len != left.Len() {
		t.Fatalf("/v1/indexes: %s", b)
	}
	for _, path := range []string{"/healthz", "/metrics", "/queries", "/"} {
		resp, err := h.Client().Get(h.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		drainBody(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}
	// Served queries appear in the registry-backed /metrics.
	if code, _ := postJSON(t, h.Client(), h.URL+"/v1/join/k",
		kDistanceRequest{Left: "left", Right: "right", K: 5}); code != 200 {
		t.Fatalf("query: %d", code)
	}
	resp, err = h.Client().Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `distjoin_queries_total{algo="AM-KDJ"} 1`) {
		t.Errorf("/metrics does not show the served query:\n%.400s", b)
	}
}

// TestGracefulShutdownDrain: Shutdown lets admitted queries finish —
// their responses arrive complete — while new queries get 503. Run
// with -race: the drain path crosses the admission gate, the
// wait-group, and the cursor table.
func TestGracefulShutdownDrain(t *testing.T) {
	s, _, _, h := testServer(t, Config{MaxInFlight: 2, MaxQueued: 8})

	// Park an open cursor first (opening needs a slot); the drain must
	// close it.
	code, body := postJSON(t, h.Client(), h.URL+"/v1/join/incremental",
		incrementalOpenRequest{Left: "left", Right: "right", PageSize: 3})
	if code != http.StatusOK {
		t.Fatalf("open cursor: %d", code)
	}
	var cresp incrementalJSON
	decodeInto(t, body, &cresp)

	// Park workers inside admit by holding both slots, so queries are
	// verifiably in flight when Shutdown begins.
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	const n = 4
	results := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := postJSON(t, h.Client(), h.URL+"/v1/join/k",
				kDistanceRequest{Left: "left", Right: "right", K: 10})
			results <- code
		}()
	}
	waitFor(t, 2*time.Second, func() bool { return s.gate.queued() == n })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, 2*time.Second, s.Draining)

	// New queries are rejected while draining.
	code, body = postJSON(t, h.Client(), h.URL+"/v1/join/k",
		kDistanceRequest{Left: "left", Right: "right", K: 5})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d: %s, want 503", code, body)
	}

	// Release the slots: every admitted query must complete with 200.
	s.gate.release()
	s.gate.release()
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Fatalf("drained query returned %d, want 200", code)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if open := s.cursors.open(); open != 0 {
		t.Fatalf("%d cursors open after drain", open)
	}
	// The cursor was closed by the drain: a client retrying it gets a
	// clean 503/404, not a hang.
	code, _ = postJSON(t, h.Client(), h.URL+"/v1/join/incremental/next",
		incrementalNextRequest{Cursor: cresp.Cursor})
	if code != http.StatusServiceUnavailable && code != http.StatusNotFound {
		t.Fatalf("cursor after drain: %d, want 503 or 404", code)
	}
}

// TestShutdownDeadlineEscalation: a Shutdown whose context expires
// reports the error; Close then hard-stops cursor queries.
func TestShutdownDeadlineEscalation(t *testing.T) {
	s, _, _, h := testServer(t, Config{MaxInFlight: 1})
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			s.gate.release()
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, h.Client(), h.URL+"/v1/join/k",
			kDistanceRequest{Left: "left", Right: "right", K: 5, DeadlineMS: 60_000})
	}()
	waitFor(t, 2*time.Second, func() bool { return s.gate.queued() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown with a stuck query and expired context returned nil")
	}
	s.Close()
	s.gate.release()
	released = true
	<-done
}

// TestConcurrentMixedLoad hammers every endpoint concurrently — the
// -race exercise for the gate, cursor table, and counters — and
// differentially validates every successful k-distance response.
func TestConcurrentMixedLoad(t *testing.T) {
	_, left, right, h := testServer(t, Config{MaxInFlight: 4, MaxQueued: 64})
	const k = 15
	want, err := distjoin.KDistanceJoin(left, right, k, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (w + i) % 3 {
				case 0:
					code, body := postJSON(t, h.Client(), h.URL+"/v1/join/k",
						kDistanceRequest{Left: "left", Right: "right", K: k})
					if code != http.StatusOK {
						errCh <- fmt.Errorf("k: %d: %s", code, body)
						return
					}
					var resp queryJSON
					if err := json.Unmarshal(body, &resp); err != nil {
						errCh <- err
						return
					}
					for j := range resp.Pairs {
						if resp.Pairs[j].Left != want[j].LeftID || resp.Pairs[j].Right != want[j].RightID {
							errCh <- fmt.Errorf("k: pair %d drifted under load", j)
							return
						}
					}
				case 1:
					code, body := postJSON(t, h.Client(), h.URL+"/v1/join/within",
						withinRequest{Left: "left", Right: "right", MaxDist: 60, Limit: 50})
					if code != http.StatusOK {
						errCh <- fmt.Errorf("within: %d: %s", code, body)
						return
					}
				case 2:
					code, body := postJSON(t, h.Client(), h.URL+"/v1/join/incremental",
						incrementalOpenRequest{Left: "left", Right: "right", PageSize: 10})
					if code != http.StatusOK {
						errCh <- fmt.Errorf("incr open: %d: %s", code, body)
						return
					}
					var resp incrementalJSON
					if err := json.Unmarshal(body, &resp); err != nil {
						errCh <- err
						return
					}
					if resp.Cursor == "" {
						continue
					}
					code, body = postJSON(t, h.Client(), h.URL+"/v1/join/incremental/next",
						incrementalNextRequest{Cursor: resp.Cursor, PageSize: 10})
					if code != http.StatusOK {
						errCh <- fmt.Errorf("incr next: %d: %s", code, body)
						return
					}
					code, _ = postJSON(t, h.Client(), h.URL+"/v1/join/incremental/close",
						incrementalCloseRequest{Cursor: resp.Cursor})
					if code != http.StatusOK {
						errCh <- fmt.Errorf("incr close: %d", code)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestAddIndexValidation covers registration errors.
func TestAddIndexValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if err := s.AddIndex("", nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.AddIndex("a", nil); err == nil {
		t.Error("nil index accepted")
	}
	idx, err := distjoin.NewIndex(testObjects(1, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex("a", idx); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex("a", idx); err == nil {
		t.Error("duplicate name accepted")
	}
}
