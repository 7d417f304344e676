package join

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/trace"
)

// loopJoins is every way a ranked join runs the bestFirst loop, through
// its public entry point: the three k-distance joins (AM-KDJ once ending
// in its aggressive stage and once forced through compensation) and the
// two incremental ones, pulled k results far.
type loopJoin struct {
	name string
	run  func(opts Options) ([]Result, error)
}

func loopJoins(left, right *rtree.Tree, k int) []loopJoin {
	pull := func(start func(l, r *rtree.Tree, o Options) (*Iterator, error)) func(Options) ([]Result, error) {
		return func(opts Options) ([]Result, error) {
			it, err := start(left, right, opts)
			if err != nil {
				return nil, err
			}
			defer it.Close()
			var out []Result
			for len(out) < k {
				res, ok := it.Next()
				if !ok {
					break
				}
				out = append(out, res)
			}
			return out, it.Err()
		}
	}
	return []loopJoin{
		{"HS-KDJ", func(o Options) ([]Result, error) { return HSKDJ(left, right, k, o) }},
		{"B-KDJ", func(o Options) ([]Result, error) { return BKDJ(left, right, k, o) }},
		{"AM-KDJ", func(o Options) ([]Result, error) { return AMKDJ(left, right, k, o) }},
		{"AM-KDJ/compensating", func(o Options) ([]Result, error) {
			o.EDmax = 1e-3 // nothing is this close: stage one ends on the first pair
			return AMKDJ(left, right, k, o)
		}},
		{"HS-IDJ", pull(HSIDJ)},
		{"AM-IDJ", pull(func(l, r *rtree.Tree, o Options) (*Iterator, error) {
			o.BatchK = 64
			return AMIDJ(l, r, o)
		})},
	}
}

// pollCtx is a context the loop's cancellation poll can be counted on:
// Err reports nil for the first `live` polls and context.Canceled from
// then on.
type pollCtx struct {
	context.Context
	live, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls <= c.live {
		return nil
	}
	return context.Canceled
}

// TestBestFirstCancelledMidRun: a context cancelled while the loop runs
// is reported at the loop's next poll, cancelEvery pops later at most,
// by every join that runs the loop. Pops are counted from below, as
// results plus node expansions.
func TestBestFirstCancelledMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 600, w, 10)
	r := datagen.Uniform(rng.Int63(), 600, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)
	const live = 2 // two polls pass, the third sees the cancellation
	for _, j := range loopJoins(left, right, 5000) {
		ctx := &pollCtx{Context: context.Background(), live: live}
		var mc metrics.Collector
		tr := trace.New(1 << 14)
		_, err := j.run(Options{Context: ctx, Metrics: &mc, Trace: tr})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", j.name, err)
			continue
		}
		if ctx.polls != live+1 {
			t.Errorf("%s: %d polls, want the join to stop at poll %d", j.name, ctx.polls, live+1)
		}
		pops := mc.ResultsProduced + int64(tr.CountKind(trace.KindExpansion))
		if pops == 0 || pops > (live+1)*cancelEvery {
			t.Errorf("%s: %d pops before the cancellation was reported, want 1..%d", j.name, pops, (live+1)*cancelEvery)
		}
		if tr.CountKind(trace.KindError) != 0 {
			t.Errorf("%s: a cancellation is the caller's own and is not traced as an error", j.name)
		}
	}
}

// TestBestFirstQueueFaults: a QueueFaultHook error at the first spill
// and at the first reload comes back wrapped from every join that runs
// the loop, never as truncated results.
func TestBestFirstQueueFaults(t *testing.T) {
	// Two sets a gap apart: no pair is at distance zero, so no run of
	// ties holds the heap together and every join splits it.
	rng := rand.New(rand.NewSource(4243))
	l := datagen.Uniform(rng.Int63(), 400, geom.NewRect(0, 0, 450, 1000), 10)
	r := datagen.Uniform(rng.Int63(), 400, geom.NewRect(550, 0, 1000, 1000), 10)
	left, right := buildTree(t, l, 16), buildTree(t, r, 16)
	sentinel := errors.New("injected queue-transition fault")
	for _, j := range loopJoins(left, right, 300) {
		for _, op := range []hybridq.FaultOp{hybridq.FaultSpill, hybridq.FaultReload} {
			reached := 0
			if _, err := j.run(tightQueueOpts(func(o hybridq.FaultOp) error {
				if o == op {
					reached++
				}
				return nil
			})); err != nil {
				t.Fatalf("%s: clean run: %v", j.name, err)
			}
			if reached == 0 {
				t.Fatalf("%s: the workload never reaches a %s; tighten the budget", j.name, op)
			}
			got, err := j.run(tightQueueOpts(func(o hybridq.FaultOp) error {
				if o != op {
					return nil
				}
				return fmt.Errorf("first %s: %w", o, sentinel)
			}))
			if !errors.Is(err, sentinel) {
				t.Errorf("%s, first %s: error %v (with %d results) does not wrap the injected fault", j.name, op, err, len(got))
			}
		}
	}
}

// TestIteratorCloseIdempotent: for both incremental joins, Close may be
// called any number of times, Next stays false after it, and Err keeps
// reporting nil for an iterator that was merely abandoned.
func TestIteratorCloseIdempotent(t *testing.T) {
	left, right := queueFaultTrees(t)
	for name, start := range map[string]func(l, r *rtree.Tree, o Options) (*Iterator, error){"HS-IDJ": HSIDJ, "AM-IDJ": AMIDJ} {
		it, err := start(left, right, Options{BatchK: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ { // past one AM-IDJ stage
			if _, ok := it.Next(); !ok {
				t.Fatalf("%s: exhausted after %d results: %v", name, i, it.Err())
			}
		}
		it.Close()
		it.Close()
		for i := 0; i < 3; i++ {
			if res, ok := it.Next(); ok {
				t.Fatalf("%s: Next produced %+v after Close", name, res)
			}
		}
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatalf("%s: Err after Close = %v", name, err)
		}
		if it.Produced() != 40 {
			t.Fatalf("%s: Produced = %d after 40 results", name, it.Produced())
		}
	}
}

// TestTraceQueueFaultEndsWithError pins the one way a failing query's
// trace differs from before the loop was written once: an AM-KDJ query
// that dies on a latched queue error in its aggressive stage ends its
// trace with the error event and no stage_end before it, as a query
// that dies on a tree fault always has.
func TestTraceQueueFaultEndsWithError(t *testing.T) {
	left, right := queueFaultTrees(t)
	sentinel := errors.New("injected queue-transition fault")
	tr := trace.New(1 << 12)
	opts := tightQueueOpts(func(op hybridq.FaultOp) error { return sentinel })
	opts.Trace = tr
	if _, err := AMKDJ(left, right, 300, opts); !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
	evs := tr.Events()
	if last := evs[len(evs)-1]; last.Kind != trace.KindError || last.Stage != "aggressive" {
		t.Fatalf("last trace event is %q in stage %q, want error in aggressive", last.Kind, last.Stage)
	}
	if n := tr.CountKind(trace.KindStageEnd) + tr.CountKind(trace.KindCompensation); n != 0 {
		t.Fatalf("the failed stage was closed or followed by another: %v", kindHistogram(tr))
	}
}
