// Package hybridq is the lockheld golden fixture: blocking work under
// a deferred and an explicit unlock, callees resolved through the
// call-graph summaries, and the single-owner annotation.
package hybridq

import (
	"sync"
	"time"

	"distjoin/internal/storage"
)

type queue struct {
	mu    sync.Mutex
	store storage.Store
	ch    chan int
	wg    sync.WaitGroup
}

func (q *queue) badDeferredUnlock(page []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	_ = q.store.ReadPage(0, page) // want "does disk I/O while the hybridq mutex is held"
	q.ch <- 1                     // want "channel send while a hybridq mutex is held"
	<-q.ch                        // want "channel receive while a hybridq mutex is held"
}

func (q *queue) badExplicitLock(page []byte) {
	q.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while the hybridq mutex is held"
	q.wg.Wait()                  // want "blocking sync Wait while the hybridq mutex is held"
	q.mu.Unlock()
	_ = q.store.ReadPage(0, page) // after Unlock: accepted
}

// load is the direct callee whose summary carries the I/O effect.
func (q *queue) load(page []byte) {
	_ = q.store.ReadPage(0, page)
}

func (q *queue) badViaCallee(page []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.load(page) // want "call to load does disk I/O"
}

func (q *queue) goodStaged(page []byte) {
	q.mu.Lock()
	n := len(page)
	q.mu.Unlock()
	_ = q.store.ReadPage(0, page[:n])
}

// allowedSingleOwner is deliberate I/O under a single-owner lock.
//
//lint:allow lockheld fixture demonstrates the single-owner annotation
func (q *queue) allowedSingleOwner(page []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	_ = q.store.ReadPage(0, page)
}

// pagePool mirrors the real queue's buffer pools: sync.Pool Get and
// Put are pointer swaps, not blocking operations, so a pooled disk
// path may recycle slabs, page buffers, and segments entirely under a
// mutex without a finding.
var pagePool sync.Pool

func (q *queue) goodPooledUnderLock(n int) []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	h, _ := pagePool.Get().(*[]byte)
	if h == nil || cap(*h) < n {
		b := make([]byte, n)
		h = &b
	}
	page := (*h)[:n]
	pagePool.Put(h)
	return page
}

// getBuf is a pool-only callee: its summary records no blocking
// effects, so calling it under the lock is accepted.
func (q *queue) getBuf() interface{} { return pagePool.Get() }

func (q *queue) goodPooledViaCallee() {
	q.mu.Lock()
	defer q.mu.Unlock()
	_ = q.getBuf()
}
