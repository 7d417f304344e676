// Package hooks is the nilhook golden fixture for rules 1 and 2:
// hook-field calls and tracer emission, guarded and unguarded.
package hooks

import (
	"sync"

	"distjoin/internal/trace"
)

type queue struct {
	fault func(op int) error
	tr    *trace.Tracer
}

type Config struct {
	FaultHook func(op int) error
}

func bad(q *queue, cfg Config, ev trace.Event) {
	_ = q.fault(1)       // want "call through hook field q.fault without a nil guard"
	_ = cfg.FaultHook(2) // want "call through hook field cfg.FaultHook without a nil guard"
	q.tr.Emit(ev)        // want "without an q.tr.Enabled\\(\\) guard"
}

func good(q *queue, cfg Config, ev trace.Event) {
	if q.fault != nil {
		_ = q.fault(1)
	}
	if cfg.FaultHook != nil {
		if err := cfg.FaultHook(2); err != nil {
			return
		}
	}
	if q.tr.Enabled() {
		q.tr.Emit(ev)
	}
}

func earlyExit(q *queue, ev trace.Event) {
	if !q.tr.Enabled() {
		return
	}
	q.tr.Emit(ev)
}

func conjunct(q *queue, err error, ev trace.Event) {
	if err != nil && q.tr.Enabled() {
		q.tr.Emit(ev)
	}
}

// pooledEmit mirrors hybridq's pooled spill path: buffers return to
// their sync.Pool before the trace event is emitted, and the emission
// stays guarded — pool traffic around a hook call changes nothing
// about the guard requirement.
func pooledEmit(q *queue, pool *sync.Pool, h *[]byte, ev trace.Event) {
	pool.Put(h)
	if q.tr.Enabled() {
		q.tr.Emit(ev)
	}
	q.tr.Emit(ev) // want "without an q.tr.Enabled\\(\\) guard"
	if q.fault != nil {
		_ = q.fault(1)
	}
	pool.Put(h)
}
