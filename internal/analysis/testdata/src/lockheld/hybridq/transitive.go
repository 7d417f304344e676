// Transitive chains exercise the call-graph summaries: the blocking
// leaf sits two same-package calls below the locked region, with the
// witness path surfacing in the message.
package hybridq

func (q *queue) flushPage(page []byte) { _ = q.store.WritePage(0, page) }

func (q *queue) spill(page []byte) { q.flushPage(page) }

func (q *queue) badTwoLevel(page []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.spill(page) // want "call to spill does disk I/O .flushPage → storage.WritePage. while the hybridq mutex is held"
}

func (q *queue) notify() { q.ch <- 1 }

func (q *queue) signal() { q.notify() }

func (q *queue) badTransitiveSend() {
	q.mu.Lock()
	q.signal() // want "call to signal performs a channel send while the hybridq mutex is held .via notify → channel send."
	q.mu.Unlock()
}

// staged has no blocking effects at any depth: its summary is empty,
// so calling it under the lock stays clean.
func (q *queue) staged(page []byte) int { return len(page) }

func (q *queue) goodTransitive(page []byte) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.staged(page)
}
