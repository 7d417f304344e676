// Package serving is the servecontract golden fixture: error statuses
// sent past writeError/writeJSON.
package serving

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

var (
	errQueueFull = errors.New("queue full")
	errDraining  = errors.New("draining")
)

const statusClientClosedRequest = 499

// writeError is the one place an error becomes a status; what it and
// writeJSON send is the table, not a bypass.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
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

func badHTTPError(w http.ResponseWriter) {
	http.Error(w, "busy", http.StatusTooManyRequests) // want "http.Error bypasses the canonical status table"
}

func goodViaTable(w http.ResponseWriter) {
	writeError(w, errQueueFull)
}

func goodSuccessHeader(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNoContent) // below 400: not an error status
}

// allowedFallback is the annotated exception: a mux fallback with no
// query context.
func allowedFallback(w http.ResponseWriter, r *http.Request) {
	//lint:allow servecontract fixture demonstrates the annotated exception
	http.NotFound(w, r)
}
