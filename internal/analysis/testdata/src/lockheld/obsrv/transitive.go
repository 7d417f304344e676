// Transitive chains exercise the call-graph summaries: the blocking
// leaf sits two same-package calls below the locked region, with the
// witness path surfacing in the message.
package obsrv

func (r *registry) writeDump(path string) { r.dump(path) }

func (r *registry) badTwoLevel(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writeDump(path) // want "call to writeDump does disk I/O .dump → os.WriteFile. while the obsrv mutex is held"
}

func (r *registry) notify(id uint64) { r.ended <- id }

func (r *registry) signal(id uint64) { r.notify(id) }

func (r *registry) badTransitiveSend(q *query) {
	r.mu.Lock()
	r.signal(q.id) // want "call to signal performs a channel send .notify → channel send. while the obsrv mutex is held"
	r.mu.Unlock()
}

// count has no blocking effects at any depth: its summary is empty,
// so calling it under the lock stays clean.
func (r *registry) count() int { return len(r.inflight) }

func (r *registry) goodTransitive() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count()
}
