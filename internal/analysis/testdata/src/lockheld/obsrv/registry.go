// Package obsrv is the lockheld golden fixture shaped like the query
// registry: one mutex on every query's begin and end and on every
// scrape, blocking work under a deferred and an explicit unlock,
// callees resolved through the call-graph summaries, and the
// single-owner annotation.
package obsrv

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"
)

type query struct{ id uint64 }

type registry struct {
	mu       sync.Mutex
	nextID   uint64
	inflight map[uint64]*query
	ended    chan uint64
	scrapes  sync.WaitGroup
}

func (r *registry) badBeginDeferredUnlock() *query {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.ended <- r.nextID // want "channel send while the obsrv mutex is held"
	<-r.ended           // want "channel receive while the obsrv mutex is held"
	select {            // want "select while the obsrv mutex is held"
	case <-r.ended: // want "channel receive while the obsrv mutex is held"
	default:
	}
	return &query{id: r.nextID}
}

func (r *registry) badEndExplicitLock(q *query) {
	r.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep sleeps while the obsrv mutex is held"
	r.scrapes.Wait()             // want "sync Wait waits on other goroutines .blocking sync Wait. while the obsrv mutex is held"
	delete(r.inflight, q.id)
	r.mu.Unlock()
	time.Sleep(time.Millisecond) // after Unlock: accepted
}

// dump is the direct callee whose summary carries the I/O effect.
func (r *registry) dump(path string) {
	_ = os.WriteFile(path, nil, 0o600)
}

func (r *registry) badDumpViaCallee(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = os.Remove(path) // want "os.Remove does disk I/O while the obsrv mutex is held"
	r.dump(path)        // want "call to dump does disk I/O .os.WriteFile. while the obsrv mutex is held"
}

// snapshot is the accepted shape: copy under the lock, work after.
func (r *registry) snapshot() []uint64 {
	r.mu.Lock()
	ids := make([]uint64, 0, len(r.inflight))
	for id := range r.inflight {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	return ids
}

func (r *registry) goodServeQueries(w http.ResponseWriter) {
	_ = json.NewEncoder(w).Encode(r.snapshot())
}

func (r *registry) badServeQueriesLocked(w http.ResponseWriter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w.WriteHeader(http.StatusOK)              // want "ResponseWriter.WriteHeader writes an HTTP response while the obsrv mutex is held"
	_ = json.NewEncoder(w).Encode(r.inflight) // want "json.Encoder.Encode writes an HTTP response while the obsrv mutex is held"
}

// allowedSingleOwner is deliberate I/O under a lock only one goroutine
// ever takes.
//
//lint:allow lockheld fixture demonstrates the single-owner annotation
func (r *registry) allowedSingleOwner(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dump(path)
}

// A literal's body runs later, not under the lock that was held when
// it was created.
func (r *registry) goodDeferredWork() func() {
	r.mu.Lock()
	defer r.mu.Unlock()
	return func() { time.Sleep(time.Millisecond) }
}
