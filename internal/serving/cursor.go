package serving

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"distjoin"
)

// cursor is one open incremental join: a live engine iterator plus
// the bookkeeping that lets pages resume where the previous page
// stopped. The cursor's deadline covers its whole lifetime — open
// through last page — enforced both here (expired cursors refuse
// pages and are swept) and inside the engine (the iterator's
// Options.Context carries the same deadline, so a pull in progress
// when the deadline passes aborts at the next cancellation poll).
type cursor struct {
	id       string
	index    string // "left,right", for the request record
	deadline time.Time
	cancel   func() // cancels the iterator's context

	mu sync.Mutex // serializes page pulls on one cursor
	it *distjoin.Iterator
	// st is the iterator's Options.Stats. The engine writes it only
	// inside it.Next and it.Close, both called under mu, so pages read
	// it under mu too.
	st       distjoin.Stats
	returned int64
	closed   bool
}

// pull serves one page of up to n pairs (n is at most maxPageSize): it
// fills in the page's share of tel — result count, the collector's
// dist-calc and compensation-stage deltas over this pull and its latest
// eDmax mode — and builds the response, less the cursor ID. The
// response's Done reports exhaustion; after an engine error the cursor
// is closed and the error returned.
func (c *cursor) pull(tel *reqTelemetry, n int) (*incrementalResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return &incrementalResponse{Done: true}, fmt.Errorf("serving: cursor %s is closed", c.id)
	}
	calcs, stages := c.st.DistCalcs(), c.st.CompensationStages
	var (
		pairs = make([]distjoin.Pair, 0, n)
		done  bool
		err   error
	)
	//lint:allow ctxpoll bounded by the page size n; the engine iterator polls Options.Context between batches
	for len(pairs) < n {
		p, ok := c.it.Next()
		if !ok {
			done = true
			err = c.it.Err()
			c.closeLocked()
			break
		}
		pairs = append(pairs, p)
	}
	c.returned += int64(len(pairs))
	if err == nil {
		tel.results = len(pairs)
	}
	tel.distCalcs, tel.compStages, tel.edmaxMode = c.st.DistCalcs()-calcs, c.st.CompensationStages-stages, c.st.EstimateMode()
	return &incrementalResponse{
		QueryID:    tel.queryID,
		Pairs:      pairs,
		Done:       done,
		Returned:   c.returned,
		DeadlineMS: time.Until(c.deadline).Milliseconds(),
	}, err
}

// closeLocked releases the iterator and its context; callers hold
// c.mu.
func (c *cursor) closeLocked() {
	if c.closed {
		return
	}
	c.closed = true
	c.it.Close()
	c.cancel()
}

func (c *cursor) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
}

// cursorTable tracks open cursors by ID, bounding how many exist and
// sweeping expired ones. Cursors are a budgeted resource exactly like
// execution slots: each holds an engine iterator with up to a full
// queue-memory budget until closed.
type cursorTable struct {
	mu   sync.Mutex
	byID map[string]*cursor
	max  int

	// expired, when non-nil, is called once per cursor reaped by the
	// idle sweep (never for explicit closes), outside the table lock —
	// the hook that counts ServingCursorsExpired.
	expired func()
}

// notifyExpired fires the expiry hook n times; callers must not hold
// t.mu.
func (t *cursorTable) notifyExpired(n int) {
	if t.expired == nil {
		return
	}
	for i := 0; i < n; i++ {
		t.expired()
	}
}

func newCursorTable(max int) *cursorTable {
	return &cursorTable{byID: make(map[string]*cursor), max: max}
}

// newID returns a 24-hex-character random cursor ID.
func newID() (string, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serving: cursor id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// add registers a cursor, first sweeping any expired ones. It fails
// with errQueueFull when the table is at capacity even after the
// sweep.
func (t *cursorTable) add(c *cursor, now time.Time) error {
	t.mu.Lock()
	expired := t.sweepLocked(now)
	if len(t.byID) >= t.max {
		t.mu.Unlock()
		closeCursors(expired)
		t.notifyExpired(len(expired))
		return fmt.Errorf("%w: %d incremental cursors open", errQueueFull, t.max)
	}
	t.byID[c.id] = c
	t.mu.Unlock()
	closeCursors(expired)
	t.notifyExpired(len(expired))
	return nil
}

// get resolves a cursor ID; expired cursors are treated as missing
// (and swept), so a client using a stale cursor sees "unknown
// cursor", matching what it would see moments later anyway.
func (t *cursorTable) get(id string, now time.Time) (*cursor, bool) {
	t.mu.Lock()
	expired := t.sweepLocked(now)
	c, ok := t.byID[id]
	t.mu.Unlock()
	closeCursors(expired)
	t.notifyExpired(len(expired))
	return c, ok
}

// remove unregisters (but does not close) a cursor.
func (t *cursorTable) remove(id string) (*cursor, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.byID[id]
	if ok {
		delete(t.byID, id)
	}
	return c, ok
}

// sweepLocked removes expired cursors from the table, returning them
// for the caller to close outside the table lock (closing finalizes
// registry accounting; no I/O belongs under the map mutex).
func (t *cursorTable) sweepLocked(now time.Time) []*cursor {
	var expired []*cursor
	for id, c := range t.byID {
		if now.After(c.deadline) {
			delete(t.byID, id)
			expired = append(expired, c)
		}
	}
	return expired
}

// open reports how many cursors are registered.
func (t *cursorTable) open() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// closeAll closes and drops every cursor (shutdown path).
func (t *cursorTable) closeAll() {
	t.mu.Lock()
	all := make([]*cursor, 0, len(t.byID))
	for id, c := range t.byID {
		delete(t.byID, id)
		all = append(all, c)
	}
	t.mu.Unlock()
	closeCursors(all)
}

func closeCursors(cs []*cursor) {
	for _, c := range cs {
		c.close()
	}
}
