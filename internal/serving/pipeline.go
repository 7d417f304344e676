package serving

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"distjoin"
)

// The request pipeline: the one file that holds an http.ResponseWriter.
// A /v1 endpoint is a function from a decoded request to a response
// value; endpoint runs the lifecycle around it, once, for all of them
// (docs/serving.md, "Request lifecycle"). An endpoint has no writer in
// scope, so the only way it can fail a request is to return the error,
// and the only status table is writeError's.

// writeGrace is how long past its query deadline a response may still
// be written, so a query that finishes at its deadline can send its
// body.
const writeGrace = 5 * time.Second

// endpoint adapts fn to the mux. For every /v1 POST, in this order: mint
// the query ID, decode the body, call fn — which validates, resolves
// and, through Server.admit, takes the execution slot — choose the
// status, count it, write the response, release the slot, cancel the
// deadline, record the request. fn gets the request's record (and with
// it the response's header map) and the *http.Request, for ?explain=1
// and the context.
func endpoint[Req any](s *Server, family string, fn func(*reqTelemetry, *http.Request, *Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tel := &reqTelemetry{
			s:       s,
			family:  family,
			queryID: s.mintQueryID(),
			start:   time.Now(),
			header:  w.Header(),
		}
		tel.header.Set("X-Distjoin-Query-Id", tel.queryID)
		// Deferred so a panicking engine call still gives its slot back.
		defer tel.finish()
		var resp any
		req := new(Req)
		err := decode(r, req)
		if err == nil {
			resp, err = fn(tel, r, req)
		}
		if !tel.until.IsZero() {
			// The slot is held until the body is written, which for a
			// response with pairs is a Write per chunk: without a write
			// deadline a client that stops reading holds the slot for as
			// long as it likes. One deadline bounds every chunk of the
			// body. The server clears it after each request, so
			// keep-alive connections are not poisoned. Writers that
			// cannot set one (test recorders) return
			// http.ErrNotSupported; the response is written either way.
			_ = http.NewResponseController(w).SetWriteDeadline(tel.until.Add(writeGrace))
		}
		tel.err = err
		tel.status = s.respond(w, resp, err)
	}
}

// view adapts a GET view (/v1/indexes, /v1/stats, /debug/slowlog): the
// same render and error functions as a POST, but a view is neither
// admitted nor recorded and has no query ID.
func (s *Server) view(fn func() (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		v, err := fn()
		s.respond(w, v, err)
	}
}

// respond writes v, or err when there is one, and returns the status it
// wrote.
func (s *Server) respond(w http.ResponseWriter, v any, err error) int {
	if err != nil {
		return s.writeError(w, err)
	}
	writeJSON(w, http.StatusOK, v)
	return http.StatusOK
}

// writeError renders err with the right status, counts it, and returns
// the status. The mapping is the budget contract of the API: admission
// overflow → 429 (shed load, retry later), shutdown → 503, deadline →
// 504, client disconnect → 499, malformed request → 400. This is the
// one place a failed request is counted, before the response is
// written, so a client that has read a status already finds it on
// /v1/stats and /metrics.
func (s *Server) writeError(w http.ResponseWriter, err error) int {
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
	return status
}

// writeJSON writes v as encoding/json's Encoder would: a response that
// carries pairs through the append encoder (encode.go), in chunks,
// anything else through encoding/json, in one Write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	// The response is already streaming; an error here means the client
	// went away.
	if r, ok := v.(pairsResponse); ok {
		_ = writeAppended(w, r)
		return
	}
	_ = json.NewEncoder(w).Encode(v)
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

// admit is the admission step of the pipeline: it bounds the request by
// the absolute deadline, rejects it when the server is draining, then
// acquires an execution slot, waiting in the bounded admission queue if
// the server is saturated. The returned context carries the deadline,
// so a query never waits longer than it is allowed to run. The wait is
// measured into tel and surfaced as the X-Distjoin-Admission-Wait
// response header (integer microseconds) so load generators can
// separate queueing from execution; the queue depth observed at entry —
// before this request joined the line — is recorded alongside. On
// success the query is tracked for shutdown draining and the slot is
// held until the pipeline has written the response: tel.finish releases
// it, and the completion feeds the drain-rate tracker that prices
// Retry-After on 429s.
func (s *Server) admit(tel *reqTelemetry, parent context.Context, deadline time.Time) (context.Context, error) {
	tel.until = deadline
	ctx, cancel := context.WithDeadline(parent, deadline)
	tel.cancel = cancel
	tel.queueDepthAtEntry = s.gate.queued()
	waitStart := time.Now()
	err := errDraining
	if s.begin() {
		if err = s.gate.acquire(ctx); err != nil {
			s.end()
		}
	}
	tel.admissionWait = time.Since(waitStart)
	if err != nil {
		return nil, err
	}
	s.metrics.Inc(distjoin.ServingAccepted)
	tel.admitted = true
	tel.header.Set("X-Distjoin-Admission-Wait",
		strconv.FormatInt(tel.admissionWait.Microseconds(), 10))
	return ctx, nil
}

// finish closes out the request: the slot is released (the body has
// been written), then the deadline is cancelled, then the request is
// recorded — one structured log line per request, a slow-ring entry and
// counter when over threshold, and the latency samples of a served one.
func (t *reqTelemetry) finish() {
	if t.admitted {
		t.s.gate.release()
		t.s.end()
		t.s.drain.observe()
	}
	if t.cancel != nil {
		t.cancel()
	}
	t.s.recordRequest(t, time.Since(t.start))
}
