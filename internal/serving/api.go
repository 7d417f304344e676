package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"distjoin"
)

// Wire schema of the /v1 query API (docs/serving.md). All request
// bodies are JSON; all responses are JSON. Omitted numeric fields
// select server defaults; every client-supplied budget (deadline_ms,
// queue_mem_bytes, k, page_size, limit) is clamped or rejected
// against the server's configured maxima.

// statusClientClosedRequest is the nginx-convention status for a
// query aborted because the client went away mid-execution.
const statusClientClosedRequest = 499

// maxBodyBytes bounds one request body; query requests are small.
const maxBodyBytes = 1 << 20

type pairJSON struct {
	Left  int64   `json:"left"`
	Right int64   `json:"right"`
	Dist  float64 `json:"dist"`
}

type statsJSON struct {
	ElapsedMS    float64 `json:"elapsed_ms"`
	DistCalcs    int64   `json:"dist_calcs"`
	QueueInserts int64   `json:"queue_inserts"`
	NodesRead    int64   `json:"nodes_read"`
}

type queryResponse struct {
	// QueryID echoes the X-Distjoin-Query-Id header so the response
	// body is self-describing in logs and captures.
	QueryID   string     `json:"query_id,omitempty"`
	Pairs     []pairJSON `json:"pairs"`
	Truncated bool       `json:"truncated,omitempty"`
	Stats     statsJSON  `json:"stats"`
	// Explain carries the per-query trace timeline when the request
	// opted in with ?explain=1.
	Explain *explainJSON `json:"explain,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

type kDistanceRequest struct {
	Left          string  `json:"left"`
	Right         string  `json:"right"`
	K             int     `json:"k"`
	Algorithm     string  `json:"algorithm,omitempty"`
	MaxDist       float64 `json:"max_dist,omitempty"` // SJ-SORT's within bound
	QueueMemBytes int     `json:"queue_mem_bytes,omitempty"`
	DeadlineMS    int64   `json:"deadline_ms,omitempty"`
}

type kClosestRequest struct {
	Index         string `json:"index"`
	K             int    `json:"k"`
	QueueMemBytes int    `json:"queue_mem_bytes,omitempty"`
	DeadlineMS    int64  `json:"deadline_ms,omitempty"`
}

type withinRequest struct {
	Left          string  `json:"left"`
	Right         string  `json:"right"`
	MaxDist       float64 `json:"max_dist"`
	Limit         int     `json:"limit,omitempty"`
	QueueMemBytes int     `json:"queue_mem_bytes,omitempty"`
	DeadlineMS    int64   `json:"deadline_ms,omitempty"`
}

type incrementalOpenRequest struct {
	Left          string `json:"left"`
	Right         string `json:"right"`
	PageSize      int    `json:"page_size,omitempty"`
	BatchK        int    `json:"batch_k,omitempty"`
	QueueMemBytes int    `json:"queue_mem_bytes,omitempty"`
	DeadlineMS    int64  `json:"deadline_ms,omitempty"`
}

type incrementalNextRequest struct {
	Cursor   string `json:"cursor"`
	PageSize int    `json:"page_size,omitempty"`
}

type incrementalCloseRequest struct {
	Cursor string `json:"cursor"`
}

type incrementalResponse struct {
	QueryID  string     `json:"query_id,omitempty"`
	Cursor   string     `json:"cursor,omitempty"`
	Pairs    []pairJSON `json:"pairs"`
	Done     bool       `json:"done"`
	Returned int64      `json:"returned"`
	// DeadlineMS is how long the cursor has left, so clients can pace
	// their pagination.
	DeadlineMS int64 `json:"deadline_ms"`
}

// apiError pairs an HTTP status with a client-facing message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *apiError {
	return &apiError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// writeError renders err with the right status and counts it. The
// mapping is the budget contract of the API: admission overflow → 429
// (shed load, retry later), shutdown → 503, deadline → 504, client
// disconnect → 499, malformed request → 400. This is the one place a
// failed request is counted, before the response is written, so a
// client that has read a status already finds it on /v1/stats and
// /metrics.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status = ae.status
	case errors.Is(err, errQueueFull):
		status = http.StatusTooManyRequests
		s.metrics.Inc(distjoin.ServingShed)
		// Retry-After is priced from the observed drain rate: roughly
		// how long until the queue ahead of this client has drained.
		// X-Queue-Depth lets clients back off proportionally.
		depth := s.gate.queued()
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(depth, s.drain.ratePerSec(time.Now()))))
		w.Header().Set("X-Queue-Depth", strconv.Itoa(depth))
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
		s.metrics.Inc(distjoin.ServingRejectedDraining)
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		s.metrics.Inc(distjoin.ServingDeadlineExceeded)
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
		s.metrics.Inc(distjoin.ServingClientGone)
	}
	if status == http.StatusInternalServerError {
		s.metrics.Inc(distjoin.ServingFailed)
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// failRequest records err on the request's telemetry, then renders it.
func (s *Server) failRequest(w http.ResponseWriter, tel *reqTelemetry, err error) {
	tel.err = err
	s.writeError(w, err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The response is already streaming; an error here means the
		// client went away.
		_ = err
	}
}

// decode reads one JSON request body into v.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	if dec.More() {
		return badRequest("invalid request body: trailing data")
	}
	return nil
}

// parseAlgorithm maps the wire names onto Algorithm values.
func parseAlgorithm(name string) (distjoin.Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "am", "amkdj", "am-kdj":
		return distjoin.AMKDJ, nil
	case "b", "bkdj", "b-kdj":
		return distjoin.BKDJ, nil
	case "hs", "hskdj", "hs-kdj":
		return distjoin.HSKDJ, nil
	case "sj", "sjsort", "sj-sort":
		return distjoin.SJSort, nil
	default:
		return 0, badRequest("unknown algorithm %q (want am, b, hs, or sj)", name)
	}
}

// resolve looks up a dataset by name with a 404-mapped error.
func (s *Server) resolve(field, name string) (*distjoin.Index, error) {
	if name == "" {
		return nil, badRequest("%s: dataset name required", field)
	}
	idx, ok := s.lookup(name)
	if !ok {
		return nil, notFound("%s: unknown dataset %q", field, name)
	}
	return idx, nil
}

// checkK validates a ranked query's k against the server budget.
func (s *Server) checkK(k int) error {
	if k <= 0 {
		return badRequest("k must be positive, got %d", k)
	}
	if m := s.cfg.maxK(); k > m {
		return badRequest("k %d exceeds the server budget %d", k, m)
	}
	return nil
}

// pageSize resolves a requested incremental page size against the
// budget (0 selects the maximum).
func (s *Server) pageSize(req int) (int, error) {
	m := s.cfg.maxPageSize()
	if req < 0 {
		return 0, badRequest("page_size must be non-negative, got %d", req)
	}
	if req == 0 || req > m {
		return m, nil
	}
	return req, nil
}

// makeStats converts engine counters for the response.
func makeStats(st *distjoin.Stats, elapsed time.Duration) statsJSON {
	return statsJSON{
		ElapsedMS:    float64(elapsed.Microseconds()) / 1e3,
		DistCalcs:    st.DistCalcs(),
		QueueInserts: st.QueueInserts(),
		NodesRead:    st.NodeAccessesLogical,
	}
}

func makePairs(pairs []distjoin.Pair) []pairJSON {
	out := make([]pairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = pairJSON{Left: p.LeftID, Right: p.RightID, Dist: p.Dist}
	}
	return out
}

// handleKDistance serves POST /v1/join/k.
func (s *Server) handleKDistance(w http.ResponseWriter, r *http.Request) {
	tel, w := s.beginRequest(w, "join/k")
	defer tel.finish()
	var req kDistanceRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.index = req.Left + "," + req.Right
	tel.k = req.K
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	if err := s.checkK(req.K); err != nil {
		s.failRequest(w, tel, err)
		return
	}
	if algo == distjoin.SJSort && req.MaxDist <= 0 {
		s.failRequest(w, tel, badRequest("algorithm sj requires max_dist > 0"))
		return
	}
	left, err := s.resolve("left", req.Left)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	right, err := s.resolve("right", req.Right)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}

	tel.deadline = s.deadline(req.DeadlineMS)
	ctx, cancel := context.WithTimeout(r.Context(), tel.deadline)
	defer cancel()
	release, err := s.admitTimed(ctx, tel)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	var st distjoin.Stats
	tel.st = &st
	opts := &distjoin.Options{
		Algorithm:     algo,
		MaxDist:       req.MaxDist,
		QueueMemBytes: s.queueMem(req.QueueMemBytes),
		Context:       ctx,
		Stats:         &st,
		Registry:      s.cfg.Registry,
		QueryID:       tel.queryID,
	}
	var tr *distjoin.Tracer
	if wantExplain(r) {
		tr = distjoin.NewTracer(0)
		opts.Trace = tr
	}
	start := time.Now()
	pairs, err := distjoin.KDistanceJoin(left, right, req.K, opts)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.results = len(pairs)
	resp := queryResponse{
		QueryID: tel.queryID,
		Pairs:   makePairs(pairs),
		Stats:   makeStats(&st, time.Since(start)),
	}
	if tr != nil {
		resp.Explain = buildExplain(tr, &st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleKClosest serves POST /v1/join/closest.
func (s *Server) handleKClosest(w http.ResponseWriter, r *http.Request) {
	tel, w := s.beginRequest(w, "join/closest")
	defer tel.finish()
	var req kClosestRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.index = req.Index
	tel.k = req.K
	if err := s.checkK(req.K); err != nil {
		s.failRequest(w, tel, err)
		return
	}
	idx, err := s.resolve("index", req.Index)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}

	tel.deadline = s.deadline(req.DeadlineMS)
	ctx, cancel := context.WithTimeout(r.Context(), tel.deadline)
	defer cancel()
	release, err := s.admitTimed(ctx, tel)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	var st distjoin.Stats
	tel.st = &st
	opts := &distjoin.Options{
		QueueMemBytes: s.queueMem(req.QueueMemBytes),
		Context:       ctx,
		Stats:         &st,
		Registry:      s.cfg.Registry,
		QueryID:       tel.queryID,
	}
	var tr *distjoin.Tracer
	if wantExplain(r) {
		tr = distjoin.NewTracer(0)
		opts.Trace = tr
	}
	start := time.Now()
	pairs, err := distjoin.KClosestPairs(idx, req.K, opts)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.results = len(pairs)
	resp := queryResponse{
		QueryID: tel.queryID,
		Pairs:   makePairs(pairs),
		Stats:   makeStats(&st, time.Since(start)),
	}
	if tr != nil {
		resp.Explain = buildExplain(tr, &st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleWithin serves POST /v1/join/within. Pairs stream from the
// engine in no particular order; the response carries up to the
// requested limit (clamped to the server budget) and flags
// truncation.
func (s *Server) handleWithin(w http.ResponseWriter, r *http.Request) {
	tel, w := s.beginRequest(w, "join/within")
	defer tel.finish()
	var req withinRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.index = req.Left + "," + req.Right
	if req.MaxDist < 0 || math.IsNaN(req.MaxDist) {
		s.failRequest(w, tel, badRequest("max_dist must be a non-negative number"))
		return
	}
	limit := s.cfg.maxResults()
	if req.Limit < 0 {
		s.failRequest(w, tel, badRequest("limit must be non-negative, got %d", req.Limit))
		return
	}
	if req.Limit > 0 && req.Limit < limit {
		limit = req.Limit
	}
	left, err := s.resolve("left", req.Left)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	right, err := s.resolve("right", req.Right)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}

	tel.deadline = s.deadline(req.DeadlineMS)
	ctx, cancel := context.WithTimeout(r.Context(), tel.deadline)
	defer cancel()
	release, err := s.admitTimed(ctx, tel)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	var st distjoin.Stats
	tel.st = &st
	opts := &distjoin.Options{
		QueueMemBytes: s.queueMem(req.QueueMemBytes),
		Context:       ctx,
		Stats:         &st,
		Registry:      s.cfg.Registry,
		QueryID:       tel.queryID,
	}
	var tr *distjoin.Tracer
	if wantExplain(r) {
		tr = distjoin.NewTracer(0)
		opts.Trace = tr
	}
	var (
		pairs     []distjoin.Pair
		truncated bool
	)
	start := time.Now()
	err = distjoin.WithinJoin(left, right, req.MaxDist, opts, func(p distjoin.Pair) bool {
		if len(pairs) >= limit {
			truncated = true
			return false
		}
		pairs = append(pairs, p)
		return true
	})
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.results = len(pairs)
	resp := queryResponse{
		QueryID:   tel.queryID,
		Pairs:     makePairs(pairs),
		Truncated: truncated,
		Stats:     makeStats(&st, time.Since(start)),
	}
	if tr != nil {
		resp.Explain = buildExplain(tr, &st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIncrementalOpen serves POST /v1/join/incremental: it opens an
// incremental join, pulls the first page, and — unless the join is
// already exhausted — registers a cursor whose remaining pages are
// fetched with /v1/join/incremental/next. The deadline covers the
// cursor's whole lifetime.
func (s *Server) handleIncrementalOpen(w http.ResponseWriter, r *http.Request) {
	tel, w := s.beginRequest(w, "incremental/open")
	defer tel.finish()
	var req incrementalOpenRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.index = req.Left + "," + req.Right
	page, err := s.pageSize(req.PageSize)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	if req.BatchK < 0 {
		s.failRequest(w, tel, badRequest("batch_k must be non-negative, got %d", req.BatchK))
		return
	}
	left, err := s.resolve("left", req.Left)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	right, err := s.resolve("right", req.Right)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}

	d := s.deadline(req.DeadlineMS)
	tel.deadline = d
	deadline := time.Now().Add(d)
	// Admission waits under the request context; the iterator runs
	// under a cursor context rooted in the server's base context (it
	// must outlive this request), sharing the same absolute deadline.
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	release, err := s.admitTimed(ctx, tel)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	curCtx, curCancel := context.WithDeadline(s.base, deadline)
	it, err := distjoin.IncrementalJoin(left, right, &distjoin.Options{
		BatchK:        req.BatchK,
		QueueMemBytes: s.queueMem(req.QueueMemBytes),
		Context:       curCtx,
		Registry:      s.cfg.Registry,
		QueryID:       tel.queryID,
	})
	if err != nil {
		curCancel()
		s.failRequest(w, tel, err)
		return
	}
	id, err := newID()
	if err != nil {
		it.Close()
		curCancel()
		s.failRequest(w, tel, err)
		return
	}
	cur := &cursor{id: id, deadline: deadline, cancel: curCancel, it: it}

	pairs, done, returned, err := cur.next(page)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.results = len(pairs)
	resp := incrementalResponse{
		QueryID:    tel.queryID,
		Pairs:      makePairs(pairs),
		Done:       done,
		Returned:   returned,
		DeadlineMS: time.Until(deadline).Milliseconds(),
	}
	if !done {
		if err := s.cursors.add(cur, time.Now()); err != nil {
			cur.close()
			s.failRequest(w, tel, err)
			return
		}
		s.metrics.Inc(distjoin.ServingCursorsOpened)
		resp.Cursor = id
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIncrementalNext serves POST /v1/join/incremental/next.
func (s *Server) handleIncrementalNext(w http.ResponseWriter, r *http.Request) {
	tel, w := s.beginRequest(w, "incremental/next")
	defer tel.finish()
	var req incrementalNextRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, tel, err)
		return
	}
	page, err := s.pageSize(req.PageSize)
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	cur, ok := s.cursors.get(req.Cursor, time.Now())
	if !ok {
		s.failRequest(w, tel, notFound("unknown cursor %q (closed, expired, or never opened)", req.Cursor))
		return
	}

	// Bound the admission wait by the cursor's remaining lifetime.
	tel.deadline = time.Until(cur.deadline)
	ctx, cancel := context.WithDeadline(r.Context(), cur.deadline)
	defer cancel()
	release, err := s.admitTimed(ctx, tel)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	pairs, done, returned, err := cur.next(page)
	if done {
		s.cursors.remove(cur.id)
	}
	if err != nil {
		s.failRequest(w, tel, err)
		return
	}
	tel.results = len(pairs)
	writeJSON(w, http.StatusOK, incrementalResponse{
		QueryID:    tel.queryID,
		Cursor:     req.Cursor,
		Pairs:      makePairs(pairs),
		Done:       done,
		Returned:   returned,
		DeadlineMS: time.Until(cur.deadline).Milliseconds(),
	})
}

// handleIncrementalClose serves POST /v1/join/incremental/close.
// Closing releases the cursor's engine iterator (idempotent at the
// iterator level) and its registry entry.
func (s *Server) handleIncrementalClose(w http.ResponseWriter, r *http.Request) {
	tel, w := s.beginRequest(w, "incremental/close")
	defer tel.finish()
	var req incrementalCloseRequest
	if err := decode(r, &req); err != nil {
		s.failRequest(w, tel, err)
		return
	}
	cur, ok := s.cursors.remove(req.Cursor)
	if !ok {
		s.failRequest(w, tel, notFound("unknown cursor %q (closed, expired, or never opened)", req.Cursor))
		return
	}
	cur.close()
	writeJSON(w, http.StatusOK, struct {
		QueryID string `json:"query_id"`
		Closed  bool   `json:"closed"`
	}{tel.queryID, true})
}

// handleIndexes serves GET /v1/indexes.
func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	type indexJSON struct {
		Name   string     `json:"name"`
		Len    int        `json:"len"`
		Height int        `json:"height"`
		Bounds [4]float64 `json:"bounds"` // x1 y1 x2 y2
	}
	names := s.indexNames()
	out := make([]indexJSON, 0, len(names))
	for _, name := range names {
		idx, ok := s.lookup(name)
		if !ok {
			continue
		}
		b := idx.Bounds()
		out = append(out, indexJSON{
			Name:   name,
			Len:    idx.Len(),
			Height: idx.Height(),
			Bounds: [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY},
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Indexes []indexJSON `json:"indexes"`
	}{out})
}

// handleStats serves GET /v1/stats: the server's own admission and
// scheduling counters, the same ones /metrics exports as
// distjoin_serving_* (the engine-level view lives on /metrics only).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, err := s.metrics.Snapshot().StatsJSON()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, json.RawMessage(body))
}

// drainBody fully reads and closes a response body so the HTTP client
// can reuse the connection; shared by the in-repo API clients
// (cmd/distjoin-load and the tests).
func drainBody(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
