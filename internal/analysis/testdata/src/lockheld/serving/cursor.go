// Package serving is the lockheld golden fixture shaped like the cursor
// table: a map mutex every cursor request crosses. A response written
// under it hands the stall to the slowest client, so handlers snapshot
// under the lock and render after releasing it; expired cursors are
// collected under the lock and closed outside it.
package serving

import (
	"encoding/json"
	"net/http"
	"sync"
)

type cursor struct {
	id   string
	done chan struct{}
}

// close waits for the cursor's pull in progress to stop.
func (c *cursor) close() { <-c.done }

type cursorTable struct {
	mu   sync.Mutex
	byID map[string]*cursor
}

func (t *cursorTable) badListLocked(w http.ResponseWriter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = json.NewEncoder(w).Encode(len(t.byID)) // want "json.Encoder.Encode writes an HTTP response while the serving mutex is held"
}

func (t *cursorTable) badNotFoundLocked(w http.ResponseWriter, r *http.Request, id string) {
	t.mu.Lock()
	if _, ok := t.byID[id]; !ok {
		http.NotFound(w, r) // want "http.NotFound writes an HTTP response while the serving mutex is held"
	}
	t.mu.Unlock()
}

// render is the transitive case: its summary carries the render
// effect, so calling it under the lock is the same bug.
func (t *cursorTable) render(w http.ResponseWriter) {
	_ = json.NewEncoder(w).Encode(len(t.byID))
}

func (t *cursorTable) badTransitiveRender(w http.ResponseWriter) {
	t.mu.Lock()
	t.render(w) // want "call to render writes an HTTP response .json.Encoder.Encode. while the serving mutex is held"
	t.mu.Unlock()
}

func (t *cursorTable) goodSnapshotThenRender(w http.ResponseWriter) {
	t.mu.Lock()
	n := len(t.byID)
	t.mu.Unlock()
	_ = json.NewEncoder(w).Encode(n)
}

func (t *cursorTable) badSweepClosesLocked() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, c := range t.byID {
		delete(t.byID, id)
		c.close() // want "call to close performs a channel receive .channel receive. while the serving mutex is held"
	}
}

// sweepLocked is the accepted shape: unregister under the lock, hand
// the cursors back for the caller to close outside it.
func (t *cursorTable) sweepLocked() []*cursor {
	var expired []*cursor
	for id, c := range t.byID {
		delete(t.byID, id)
		expired = append(expired, c)
	}
	return expired
}

func (t *cursorTable) goodSweep() {
	t.mu.Lock()
	expired := t.sweepLocked()
	t.mu.Unlock()
	for _, c := range expired {
		c.close()
	}
}
