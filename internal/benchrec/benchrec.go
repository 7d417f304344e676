// Package benchrec defines the schema-versioned JSON performance
// record produced by `distjoin-bench -bench-json` and the comparison
// logic used by `cmd/benchdiff` and the CI regression gate.
//
// A Record captures one harness run: the workload identity (scale,
// seed) plus one Entry per benchmarked query. Entries carry the
// deterministic cost counters of internal/metrics (distance
// computations, queue insertions, node accesses, modeled page I/O) and
// the bytes allocated, which are informational. Comparison gates on
// the deterministic counters: two runs at the same scale and seed
// execute the identical query plan, so any counter growth is a real
// algorithmic regression, not scheduler jitter. The record holds no
// wall-clock time; the repository benchmark (benchmark/) is the one
// clock.
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
const SchemaVersion = 2

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
	Name string `json:"name"` // unique key, e.g. "AM-KDJ/k=200"
	Algo string `json:"algo"`
	K    int    `json:"k"`

	// AllocBytes varies with the runtime; informational, never compared.
	AllocBytes uint64 `json:"alloc_bytes"`

	// Deterministic cost counters.
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
// Every finding fails the gate.
type Finding struct {
	Entry  string
	Metric string
	Old    float64
	New    float64
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
	return fmt.Sprintf("regression %s %s: %.6g -> %.6g (%+.1f%%)",
		f.Entry, f.Metric, f.Old, f.New, (f.Ratio()-1)*100)
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
		if oe.Results != ne.Results {
			findings = append(findings, Finding{
				Entry: oe.Name, Metric: "results",
				Old: float64(oe.Results), New: float64(ne.Results),
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
					Old: float64(ov), New: float64(nv),
				})
			}
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
