// Package serving is the servecontract golden fixture: the canonical
// status table, direct statuses, and snapshot-then-render.
package serving

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
)

var (
	errQueueFull = errors.New("queue full")
	errDraining  = errors.New("draining")
)

const statusClientClosedRequest = 499

// writeError has lost its 504 row: context.DeadlineExceeded now falls
// through to the 500 default.
func writeError(w http.ResponseWriter, err error) { // want "writeError no longer maps the 504 deadline row"
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func badNotFound(w http.ResponseWriter, r *http.Request) {
	http.NotFound(w, r) // want "http.NotFound bypasses the canonical status table"
}

func badWriteHeader(w http.ResponseWriter) {
	w.WriteHeader(http.StatusBadGateway) // want "WriteHeader.502. bypasses the canonical status table"
}

func goodViaTable(w http.ResponseWriter) {
	writeError(w, errQueueFull)
}

type table struct {
	mu   sync.Mutex
	rows []string
}

func (t *table) badRenderLocked(w http.ResponseWriter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = json.NewEncoder(w).Encode(t.rows) // want "json.Encoder.Encode while a serving mutex is held"
}

// render is the transitive case: its summary carries the render
// effect, so calling it under the lock is the same bug.
func (t *table) render(w http.ResponseWriter) {
	_ = json.NewEncoder(w).Encode(t.rows)
}

func (t *table) badTransitiveRender(w http.ResponseWriter) {
	t.mu.Lock()
	t.render(w) // want "call to render renders an HTTP response .json.Encoder.Encode. while a serving mutex is held"
	t.mu.Unlock()
}

func (t *table) goodSnapshotThenRender(w http.ResponseWriter) {
	t.mu.Lock()
	rows := append([]string(nil), t.rows...)
	t.mu.Unlock()
	_ = json.NewEncoder(w).Encode(rows)
}
