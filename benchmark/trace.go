package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// Spans are recorded here, in the benchmark's own files, around the
// calls into each layer; nothing inside the program under test knows
// about them. They are kept in memory and written as one JSON file when
// the traced run ends.

// span is one timed interval of one op. Parent is the ID of the span
// that caused it, 0 for the op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanTotals is what every op contributes to, kept or not.
type spanTotals struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// recorder collects the spans of a traced phase: totals per span name
// over all ops, and the full span list of every traceEvery-th op.
type recorder struct {
	epoch  time.Time
	nextID int
	ops    int
	kept   []span
	totals map[string]*spanTotals
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), totals: map[string]*spanTotals{}}
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Parent indexes refer to
// positions in spans; -1 marks a root. Children may overlap each other
// and may stick out of their parent; only the covered part of the
// parent's own interval is subtracted, once.
func selfTimes(spans []span, parent []int) []int64 {
	children := make([][]int, len(spans))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, upTo), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// addOp takes the spans of one finished op, with parents given as
// positions in the slice (-1 for the root), folds them into the totals
// and keeps them if the op is a sampled one.
func (r *recorder) addOp(spans []span, parent []int) {
	self := selfTimes(spans, parent)
	for i, s := range spans {
		t := r.totals[s.Name]
		if t == nil {
			t = &spanTotals{}
			r.totals[s.Name] = t
		}
		t.Count++
		t.TotalNS += s.dur()
		t.SelfNS += self[i]
	}
	if r.ops%traceEvery == 0 {
		base := r.nextID + 1
		for i, s := range spans {
			s.ID = base + i
			s.Op = r.ops
			if parent[i] >= 0 {
				s.Parent = base + parent[i]
			}
			r.kept = append(r.kept, s)
		}
		r.nextID += len(spans)
	}
	r.ops++
}

// msPerOp is a span name's total time per traced op, in milliseconds.
func (r *recorder) msPerOp(name string) float64 {
	t := r.totals[name]
	if t == nil || r.ops == 0 {
		return 0
	}
	return float64(t.TotalNS) / 1e6 / float64(r.ops)
}

func (r *recorder) countPerOp(name string) float64 {
	t := r.totals[name]
	if t == nil || r.ops == 0 {
		return 0
	}
	return float64(t.Count) / float64(r.ops)
}

// traceFile is the span file of a traced run.
type traceFile struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Host       hostShape              `json:"host"`
	Ops        int                    `json:"ops"`
	TraceEvery int                    `json:"trace_every"`
	Totals     map[string]*spanTotals `json:"totals"`
	Spans      []span                 `json:"spans"`
}

func (r *recorder) write(cfg config) (string, error) {
	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(cfg.root, ".bench_build", "traces", cfg.workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Host: thisHost(),
		Ops: r.ops, TraceEvery: traceEvery, Totals: r.totals, Spans: r.kept,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
