package join

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/trace"
)

// Every algorithm honors context cancellation: a pre-canceled context
// aborts the join with context.Canceled instead of running it.
func TestContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 600, w, 10)
	r := datagen.Uniform(rng.Int63(), 600, w, 10)
	left, right := buildTree(t, l, 8), buildTree(t, r, 8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Context: ctx}
	// Large k so every algorithm must loop well past the poll interval.
	k := 5000

	for name, run := range map[string]func() error{
		"HS-KDJ": func() error { _, err := HSKDJ(left, right, k, opts); return err },
		"B-KDJ":  func() error { _, err := BKDJ(left, right, k, opts); return err },
		"AM-KDJ": func() error { _, err := AMKDJ(left, right, k, opts); return err },
		"SJ-SORT": func() error {
			_, err := SJSort(left, right, k, 1e9, opts)
			return err
		},
		"WithinJoin": func() error {
			return WithinJoin(left, right, 1e9, opts, func(Result) bool { return true })
		},
		"HS-IDJ": func() error {
			it, err := HSIDJ(left, right, opts)
			if err != nil {
				return err
			}
			for i := 0; i < k; i++ {
				if _, ok := it.Next(); !ok {
					return it.Err()
				}
			}
			return nil
		},
		"AM-IDJ": func() error {
			it, err := AMIDJ(left, right, opts)
			if err != nil {
				return err
			}
			for i := 0; i < k; i++ {
				if _, ok := it.Next(); !ok {
					return it.Err()
				}
			}
			return nil
		},
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", name, err)
		}
	}

	// A live context does not interfere.
	live := Options{Context: context.Background()}
	got, err := BKDJ(left, right, 50, live)
	if err != nil || len(got) != 50 {
		t.Fatalf("live context: %d results, %v", len(got), err)
	}
}

// stageCtx is a context cancelled by the first expansion of one stage:
// Err reports context.Canceled once the trace holds an expansion event
// of that stage, and nil before.
type stageCtx struct {
	context.Context
	tr    *trace.Tracer
	stage string
}

func (c *stageCtx) Err() error {
	for _, ev := range c.tr.Events() {
		if ev.Kind == trace.KindExpansion && ev.Stage == c.stage {
			return context.Canceled
		}
	}
	return nil
}

// TestCancelledAfterFirstExpansion: a context cancelled by a stage's
// first expansion is seen before the join ends, by B-KDJ and in both
// stages of AM-KDJ. On wide nodes a large-k join pops few pairs for the
// work it does, since its results never enter the main queue: a poll
// counted by pops alone would come too late, and the join would return
// its answer.
func TestCancelledAfterFirstExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 600, w, 10)
	r := datagen.Uniform(rng.Int63(), 600, w, 10)
	left, right := buildTree(t, l, 64), buildTree(t, r, 64)
	const k = 5000
	for _, q := range []struct {
		name, stage string
		run         func(o Options) ([]Result, error)
	}{
		{"B-KDJ", "sweep", func(o Options) ([]Result, error) { return BKDJ(left, right, k, o) }},
		{"AM-KDJ", "aggressive", func(o Options) ([]Result, error) { return AMKDJ(left, right, k, o) }},
		{"AM-KDJ/compensation", "compensation", func(o Options) ([]Result, error) {
			o.EDmax = 1e-3 // nothing is this close: stage one falls short
			return AMKDJ(left, right, k, o)
		}},
	} {
		tr := trace.New(1 << 14)
		if got, err := q.run(Options{Trace: tr}); err != nil || len(got) != k {
			t.Fatalf("%s: uncancelled run: %d results, %v", q.name, len(got), err)
		}
		if tr.CountKind(trace.KindExpansion) >= cancelEvery {
			t.Fatalf("%s: %d expansions; the data must pop fewer pairs than one poll interval", q.name, tr.CountKind(trace.KindExpansion))
		}
		tr = trace.New(1 << 14)
		ctx := &stageCtx{Context: context.Background(), tr: tr, stage: q.stage}
		got, err := q.run(Options{Context: ctx, Trace: tr})
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("%s: cancelled by its first %s expansion, got %d results and %v, want context.Canceled", q.name, q.stage, len(got), err)
		}
	}
}
