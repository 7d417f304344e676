// Package benchrec defines the schema-versioned JSON performance
// record produced by `distjoin-bench -bench-json` and the comparison
// logic used by `cmd/benchdiff` and the CI regression gate.
//
// A Record captures one harness run: the workload identity (scale,
// seed) plus one Entry per benchmarked query. Entries carry the
// deterministic cost counters of internal/metrics (distance
// computations, queue insertions, node accesses, modeled page I/O) and
// the noisy wall-clock/allocation measurements. Comparison gates on
// the deterministic counters — two runs at the same scale and seed
// execute the identical serial query plan, so any counter growth is a
// real algorithmic regression, not scheduler jitter — while wall time
// stays informational unless a time threshold is explicitly set.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"distjoin/internal/metrics"
)

// SchemaVersion is bumped whenever Record/Entry change incompatibly.
// benchdiff refuses to compare records with mismatched schemas rather
// than misreading old fields as zeros.
const SchemaVersion = 1

// Record is one full harness run.
type Record struct {
	Schema    int    `json:"schema"`
	CreatedAt string `json:"created_at,omitempty"` // RFC 3339; informational
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`

	// Workload identity: counters are only comparable between records
	// with equal scale and seed.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`

	Entries []Entry `json:"entries"`
}

// Entry is one benchmarked query.
type Entry struct {
	Name        string `json:"name"` // unique key, e.g. "AM-KDJ/k=200"
	Algo        string `json:"algo"`
	K           int    `json:"k"`
	Parallelism int    `json:"parallelism,omitempty"` // 0/1 = serial

	// Noisy measurements: informational by default.
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`

	// Deterministic cost counters (serial runs).
	DistCalcs     int64 `json:"dist_calcs"`
	QueueInserts  int64 `json:"queue_inserts"`
	NodesLogical  int64 `json:"nodes_logical"`
	NodesPhysical int64 `json:"nodes_physical"`
	QueuePageIO   int64 `json:"queue_page_io"`
	SortPageIO    int64 `json:"sort_page_io"`
	Results       int64 `json:"results"`
	CompStages    int64 `json:"comp_stages"`
}

// FromCollector builds an Entry from one query's counters.
func FromCollector(name, algo string, k int, mc *metrics.Collector, allocBytes uint64) Entry {
	return Entry{
		Name:          name,
		Algo:          algo,
		K:             k,
		WallSeconds:   mc.WallTime.Seconds(),
		AllocBytes:    allocBytes,
		DistCalcs:     mc.DistCalcs(),
		QueueInserts:  mc.QueueInserts(),
		NodesLogical:  mc.NodeAccessesLogical,
		NodesPhysical: mc.NodeAccessesPhysical,
		QueuePageIO:   mc.QueuePageReads + mc.QueuePageWrites,
		SortPageIO:    mc.SortPageReads + mc.SortPageWrites,
		Results:       mc.ResultsProduced,
		CompStages:    mc.CompensationStages,
	}
}

// WriteFile writes r as indented JSON (with trailing newline) to path.
func WriteFile(path string, r *Record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile reads and validates a record.
func ReadFile(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this build understands %d", path, r.Schema, SchemaVersion)
	}
	seen := make(map[string]bool, len(r.Entries))
	for _, e := range r.Entries {
		if e.Name == "" {
			return nil, fmt.Errorf("%s: entry with empty name", path)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("%s: duplicate entry %q", path, e.Name)
		}
		seen[e.Name] = true
	}
	return &r, nil
}

// Options configures Compare.
type Options struct {
	// Threshold is the relative counter-growth gate: new > old*(1+T)
	// flags a regression. The CI pipeline uses 0.25.
	Threshold float64
	// TimeThreshold, when > 0, additionally gates wall-clock growth.
	// Zero (the default) keeps wall time informational: shared CI
	// runners make it too noisy to fail a build on.
	TimeThreshold float64
	// AbsFloor suppresses counter findings whose absolute growth is
	// below this many units; tiny workloads otherwise trip the
	// relative gate on single-digit deltas. Default 64.
	AbsFloor int64
}

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 0.25
	}
	if o.AbsFloor <= 0 {
		o.AbsFloor = 64
	}
	return o
}

// Finding is one metric of one entry that grew past its threshold.
type Finding struct {
	Entry  string
	Metric string
	Old    float64
	New    float64
	// Gating findings fail the gate; non-gating ones (wall time
	// without -time-threshold, and the numbers of entries marked
	// parallel, which are scheduling-dependent) are reported but don't.
	Gating bool
}

// Ratio returns New/Old (Inf when Old is zero).
func (f Finding) Ratio() float64 {
	if f.Old == 0 {
		if f.New == 0 {
			return 1
		}
		return float64(int64(1) << 62) // effectively infinite growth
	}
	return f.New / f.Old
}

func (f Finding) String() string {
	tag := "regression"
	if !f.Gating {
		tag = "note"
	}
	return fmt.Sprintf("%-10s %s %s: %.6g -> %.6g (%+.1f%%)",
		tag, f.Entry, f.Metric, f.Old, f.New, (f.Ratio()-1)*100)
}

// counterOf enumerates the gated counters of an entry.
var counters = []struct {
	name string
	get  func(Entry) int64
}{
	{"dist_calcs", func(e Entry) int64 { return e.DistCalcs }},
	{"queue_inserts", func(e Entry) int64 { return e.QueueInserts }},
	{"nodes_logical", func(e Entry) int64 { return e.NodesLogical }},
	{"nodes_physical", func(e Entry) int64 { return e.NodesPhysical }},
	{"queue_page_io", func(e Entry) int64 { return e.QueuePageIO }},
	{"sort_page_io", func(e Entry) int64 { return e.SortPageIO }},
	{"comp_stages", func(e Entry) int64 { return e.CompStages }},
}

// Compare diffs new against old and returns every finding, sorted by
// entry name then metric. It errors (rather than reporting findings)
// when the records aren't comparable: mismatched workload identity, or
// a baseline entry missing from the new record. Entries only present
// in the new record are fine — they are fresh coverage with no
// baseline to regress against.
func Compare(old, new *Record, opts Options) ([]Finding, error) {
	opts = opts.withDefaults()
	//lint:allow floatcmp workload identity check on recorded config values round-tripped through JSON, not computed distances
	if old.Scale != new.Scale || old.Seed != new.Seed {
		return nil, fmt.Errorf("records not comparable: baseline scale=%g seed=%d vs new scale=%g seed=%d",
			old.Scale, old.Seed, new.Scale, new.Seed)
	}
	byName := make(map[string]Entry, len(new.Entries))
	for _, e := range new.Entries {
		byName[e.Name] = e
	}
	var findings []Finding
	for _, oe := range old.Entries {
		ne, ok := byName[oe.Name]
		if !ok {
			return nil, fmt.Errorf("baseline entry %q missing from new record (coverage lost)", oe.Name)
		}
		// Engine counters are deterministic; the entries marked parallel
		// (distjoin-load's serve series) carry latencies measured under
		// concurrent clients, so their findings never gate.
		gating := oe.Parallelism <= 1 && ne.Parallelism <= 1
		if oe.Results != ne.Results && gating {
			findings = append(findings, Finding{
				Entry: oe.Name, Metric: "results",
				Old: float64(oe.Results), New: float64(ne.Results), Gating: true,
			})
		}
		for _, c := range counters {
			ov, nv := c.get(oe), c.get(ne)
			if nv-ov < opts.AbsFloor {
				continue
			}
			if float64(nv) > float64(ov)*(1+opts.Threshold) {
				findings = append(findings, Finding{
					Entry: oe.Name, Metric: c.name,
					Old: float64(ov), New: float64(nv), Gating: gating,
				})
			}
		}
		if oe.WallSeconds > 0 && ne.WallSeconds > oe.WallSeconds*(1+wallThreshold(opts)) {
			findings = append(findings, Finding{
				Entry: oe.Name, Metric: "wall_seconds",
				Old: oe.WallSeconds, New: ne.WallSeconds,
				Gating: opts.TimeThreshold > 0,
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Entry != findings[j].Entry {
			return findings[i].Entry < findings[j].Entry
		}
		return findings[i].Metric < findings[j].Metric
	})
	return findings, nil
}

// wallThreshold picks the wall-clock reporting threshold: the explicit
// gate when set, otherwise the counter threshold (for informational
// notes).
func wallThreshold(opts Options) float64 {
	if opts.TimeThreshold > 0 {
		return opts.TimeThreshold
	}
	return opts.Threshold
}

// Gating reports whether any finding should fail the gate.
func Gating(findings []Finding) bool {
	for _, f := range findings {
		if f.Gating {
			return true
		}
	}
	return false
}
