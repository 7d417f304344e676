package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
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

// maxResults bounds how many pairs a within query may return in one
// response; larger result sets are truncated and flagged in the
// response. maxPageSize bounds one incremental page.
const (
	maxResults  = 100_000
	maxPageSize = 4096
)

type statsJSON struct {
	ElapsedMS    float64 `json:"elapsed_ms"`
	DistCalcs    int64   `json:"dist_calcs"`
	QueueInserts int64   `json:"queue_inserts"`
	NodesRead    int64   `json:"nodes_read"`
}

// queryResponse is a blocking query's response. The append encoder
// (encode.go) renders it as the object
// {"query_id","pairs":[{"left","right","dist"}...],"truncated","stats","explain"},
// leaving out an empty query_id, a false truncated and a nil explain.
type queryResponse struct {
	// QueryID echoes the X-Distjoin-Query-Id header so the response
	// body is self-describing in logs and captures.
	QueryID   string
	Pairs     []distjoin.Pair
	Truncated bool
	Stats     statsJSON
	// Explain carries the per-query trace timeline when the request
	// opted in with ?explain=1; explainBytes is its encoding/json form.
	Explain      *explainJSON
	explainBytes []byte
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

// incrementalResponse is one cursor page. The append encoder renders it
// as {"query_id","cursor","pairs","done","returned","deadline_ms"},
// leaving out an empty query_id and an empty cursor.
type incrementalResponse struct {
	QueryID  string
	Cursor   string
	Pairs    []distjoin.Pair
	Done     bool
	Returned int64
	// DeadlineMS is how long the cursor has left, so clients can pace
	// their pagination.
	DeadlineMS int64
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

// resolveBoth looks up the two sides of a join.
func (s *Server) resolveBoth(leftName, rightName string) (left, right *distjoin.Index, err error) {
	if left, err = s.resolve("left", leftName); err != nil {
		return nil, nil, err
	}
	if right, err = s.resolve("right", rightName); err != nil {
		return nil, nil, err
	}
	return left, right, nil
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
	if k > s.cfg.MaxK {
		return badRequest("k %d exceeds the server budget %d", k, s.cfg.MaxK)
	}
	return nil
}

// pageSize resolves a requested incremental page size against the
// budget (0 selects the maximum).
func pageSize(req int) (int, error) {
	if req < 0 {
		return 0, badRequest("page_size must be non-negative, got %d", req)
	}
	if req == 0 || req > maxPageSize {
		return maxPageSize, nil
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

// blockingQuery is a validated blocking join: the budgets the request
// asked for plus the engine call. opts carries what the request chose
// (algorithm, distance bound, queue memory); serve adds what the server
// owns. run reports whether it cut the result short.
type blockingQuery struct {
	deadlineMS int64
	opts       distjoin.Options
	run        func(opts *distjoin.Options) (pairs []distjoin.Pair, truncated bool, err error)
}

// serve admits the query under its deadline, runs it and builds the
// response: the one copy of the blocking-join lifecycle.
func (q blockingQuery) serve(s *Server, tel *reqTelemetry, r *http.Request) (any, error) {
	tel.deadline = s.deadline(q.deadlineMS)
	ctx, err := s.admit(tel, r.Context(), time.Now().Add(tel.deadline))
	if err != nil {
		return nil, err
	}
	var st distjoin.Stats
	opts := q.opts
	opts.Context = ctx
	opts.Stats = &st
	opts.Registry = s.cfg.Registry
	opts.QueryID = tel.queryID
	var tr *distjoin.Tracer
	if wantExplain(r) {
		tr = distjoin.NewTracer(0)
		opts.Trace = tr
	}
	start := time.Now()
	pairs, truncated, err := q.run(&opts)
	// An aborted run is recorded with the work it did.
	tel.distCalcs, tel.compStages, tel.edmaxMode = st.DistCalcs(), st.CompensationStages, st.EstimateMode()
	if err != nil {
		return nil, err
	}
	tel.results = len(pairs)
	resp := &queryResponse{
		QueryID:   tel.queryID,
		Pairs:     pairs,
		Truncated: truncated,
		Stats:     makeStats(&st, time.Since(start)),
	}
	if tr != nil {
		resp.Explain = buildExplain(tr, &st)
	}
	return resp, nil
}

// kDistance serves POST /v1/join/k.
func (s *Server) kDistance(tel *reqTelemetry, r *http.Request, req *kDistanceRequest) (any, error) {
	tel.index = req.Left + "," + req.Right
	tel.k = req.K
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, err
	}
	if err := s.checkK(req.K); err != nil {
		return nil, err
	}
	if algo == distjoin.SJSort && req.MaxDist <= 0 {
		return nil, badRequest("algorithm sj requires max_dist > 0")
	}
	left, right, err := s.resolveBoth(req.Left, req.Right)
	if err != nil {
		return nil, err
	}
	return blockingQuery{
		deadlineMS: req.DeadlineMS,
		opts: distjoin.Options{
			Algorithm:     algo,
			MaxDist:       req.MaxDist,
			QueueMemBytes: s.queueMem(req.QueueMemBytes),
		},
		run: func(opts *distjoin.Options) ([]distjoin.Pair, bool, error) {
			pairs, err := distjoin.KDistanceJoin(left, right, req.K, opts)
			return pairs, false, err
		},
	}.serve(s, tel, r)
}

// kClosest serves POST /v1/join/closest.
func (s *Server) kClosest(tel *reqTelemetry, r *http.Request, req *kClosestRequest) (any, error) {
	tel.index = req.Index
	tel.k = req.K
	if err := s.checkK(req.K); err != nil {
		return nil, err
	}
	idx, err := s.resolve("index", req.Index)
	if err != nil {
		return nil, err
	}
	return blockingQuery{
		deadlineMS: req.DeadlineMS,
		opts:       distjoin.Options{QueueMemBytes: s.queueMem(req.QueueMemBytes)},
		run: func(opts *distjoin.Options) ([]distjoin.Pair, bool, error) {
			pairs, err := distjoin.KClosestPairs(idx, req.K, opts)
			return pairs, false, err
		},
	}.serve(s, tel, r)
}

// within serves POST /v1/join/within. Pairs stream from the engine in
// no particular order; the response carries up to the requested limit
// (clamped to maxResults) and flags truncation.
func (s *Server) within(tel *reqTelemetry, r *http.Request, req *withinRequest) (any, error) {
	tel.index = req.Left + "," + req.Right
	if req.MaxDist < 0 || math.IsNaN(req.MaxDist) {
		return nil, badRequest("max_dist must be a non-negative number")
	}
	limit := maxResults
	if req.Limit < 0 {
		return nil, badRequest("limit must be non-negative, got %d", req.Limit)
	}
	if req.Limit > 0 && req.Limit < limit {
		limit = req.Limit
	}
	left, right, err := s.resolveBoth(req.Left, req.Right)
	if err != nil {
		return nil, err
	}
	return blockingQuery{
		deadlineMS: req.DeadlineMS,
		opts:       distjoin.Options{QueueMemBytes: s.queueMem(req.QueueMemBytes)},
		run: func(opts *distjoin.Options) (pairs []distjoin.Pair, truncated bool, err error) {
			err = distjoin.WithinJoin(left, right, req.MaxDist, opts, func(p distjoin.Pair) bool {
				if len(pairs) >= limit {
					truncated = true
					return false
				}
				pairs = append(pairs, p)
				return true
			})
			return pairs, truncated, err
		},
	}.serve(s, tel, r)
}

// incrementalOpen serves POST /v1/join/incremental: it opens an
// incremental join, pulls the first page, and — unless the join is
// already exhausted — registers a cursor whose remaining pages are
// fetched with /v1/join/incremental/next. The deadline covers the
// cursor's whole lifetime.
func (s *Server) incrementalOpen(tel *reqTelemetry, r *http.Request, req *incrementalOpenRequest) (any, error) {
	tel.index = req.Left + "," + req.Right
	page, err := pageSize(req.PageSize)
	if err != nil {
		return nil, err
	}
	if req.BatchK < 0 {
		return nil, badRequest("batch_k must be non-negative, got %d", req.BatchK)
	}
	// Every AM-IDJ stage after the first is a compensation stage, which
	// re-expands every live bookkept node pair. An omitted batch_k makes
	// a stage at least one page long, so a large page pays for about one
	// stage rather than one per DefaultBatchK pairs (docs/serving.md,
	// "Stage size"). An explicit batch_k is honoured as given.
	batchK := req.BatchK
	if batchK == 0 {
		batchK = max(distjoin.DefaultBatchK, page)
	}
	left, right, err := s.resolveBoth(req.Left, req.Right)
	if err != nil {
		return nil, err
	}

	tel.deadline = s.deadline(req.DeadlineMS)
	deadline := time.Now().Add(tel.deadline)
	// Admission waits under the request context; the iterator runs
	// under a cursor context rooted in the server's base context (it
	// must outlive this request), sharing the same absolute deadline.
	if _, err := s.admit(tel, r.Context(), deadline); err != nil {
		return nil, err
	}
	id, err := newID()
	if err != nil {
		return nil, err
	}
	curCtx, curCancel := context.WithDeadline(s.base, deadline)
	cur := &cursor{id: id, index: tel.index, deadline: deadline, cancel: curCancel}
	cur.it, err = distjoin.IncrementalJoin(left, right, &distjoin.Options{
		BatchK:        batchK,
		QueueMemBytes: s.queueMem(req.QueueMemBytes),
		Context:       curCtx,
		Stats:         &cur.st,
		Registry:      s.cfg.Registry,
		QueryID:       tel.queryID,
	})
	if err != nil {
		curCancel()
		return nil, err
	}

	resp, err := cur.pull(tel, page)
	if err != nil {
		return nil, err
	}
	if !resp.Done {
		if err := s.cursors.add(cur, time.Now()); err != nil {
			cur.close()
			return nil, err
		}
		s.metrics.Inc(distjoin.ServingCursorsOpened)
		resp.Cursor = id
	}
	return resp, nil
}

// incrementalNext serves POST /v1/join/incremental/next.
func (s *Server) incrementalNext(tel *reqTelemetry, r *http.Request, req *incrementalNextRequest) (any, error) {
	page, err := pageSize(req.PageSize)
	if err != nil {
		return nil, err
	}
	cur, ok := s.cursors.get(req.Cursor, time.Now())
	if !ok {
		return nil, notFound("unknown cursor %q (closed, expired, or never opened)", req.Cursor)
	}
	tel.index = cur.index

	// Bound the admission wait by the cursor's remaining lifetime.
	tel.deadline = time.Until(cur.deadline)
	if _, err := s.admit(tel, r.Context(), cur.deadline); err != nil {
		return nil, err
	}
	resp, err := cur.pull(tel, page)
	if resp.Done {
		s.cursors.remove(cur.id)
	}
	if err != nil {
		return nil, err
	}
	resp.Cursor = req.Cursor
	return resp, nil
}

// incrementalClose serves POST /v1/join/incremental/close. Closing
// releases the cursor's engine iterator (idempotent at the iterator
// level) and its registry entry.
func (s *Server) incrementalClose(tel *reqTelemetry, _ *http.Request, req *incrementalCloseRequest) (any, error) {
	cur, ok := s.cursors.remove(req.Cursor)
	if !ok {
		return nil, notFound("unknown cursor %q (closed, expired, or never opened)", req.Cursor)
	}
	tel.index = cur.index
	cur.close()
	return struct {
		QueryID string `json:"query_id"`
		Closed  bool   `json:"closed"`
	}{tel.queryID, true}, nil
}

// indexesView serves GET /v1/indexes.
func (s *Server) indexesView() (any, error) {
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
	return struct {
		Indexes []indexJSON `json:"indexes"`
	}{out}, nil
}

// statsView serves GET /v1/stats: the server's own admission and
// scheduling counters, the same ones /metrics exports as
// distjoin_serving_* (the engine-level view lives on /metrics only).
func (s *Server) statsView() (any, error) {
	body, err := s.metrics.Snapshot().StatsJSON()
	return json.RawMessage(body), err
}
