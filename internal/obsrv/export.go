package obsrv

import (
	"io"
	"sort"

	"distjoin/internal/trace"
)

// Prometheus text exposition (version 0.0.4) for a registry snapshot.
//
// The per-query exporter of internal/trace emits one unlabeled sample
// per Collector counter; here the same metric families — enumerated
// through trace.PromFields, so the two surfaces can never drift — are
// emitted once per algorithm with an {algo="..."} label, followed by
// the registry-only families: query/error counts, the log-bucketed
// histograms (`_bucket`/`_sum`/`_count` with cumulative `le` series),
// and the eDmax-estimator accuracy metrics. Both exporters write
// through the one trace.PromWriter.

// writeHistogram emits one series of a histogram family.
func writeHistogram(p *trace.PromWriter, name, labels string, h HistogramSnapshot) {
	p.Histogram(name, labels, h.Bounds, h.Counts, h.Sum, h.Count)
}

func algoLabel(algo string) string { return trace.PromLabel("algo", algo) }

// registryHistogram describes one per-algorithm histogram family.
type registryHistogram struct {
	name string
	help string
	get  func(AlgoSnapshot) HistogramSnapshot
}

var registryHistograms = []registryHistogram{
	{
		name: "distjoin_query_latency_seconds",
		help: "Per-query wall-clock latency, by algorithm.",
		get:  func(a AlgoSnapshot) HistogramSnapshot { return a.Latency },
	},
	{
		name: "distjoin_query_dist_calcs",
		help: "Distance computations per query (axis + real), by algorithm.",
		get:  func(a AlgoSnapshot) HistogramSnapshot { return a.DistCalcs },
	},
	{
		name: "distjoin_query_queue_inserts",
		help: "Priority-queue insertions per query (all queues), by algorithm.",
		get:  func(a AlgoSnapshot) HistogramSnapshot { return a.QueueInserts },
	},
	{
		name: "distjoin_edmax_estimate_ratio",
		help: "eDmax estimator accuracy: estimated cutoff divided by the realized k-th distance (1.0 = exact, <1 underestimate forcing compensation, >1 overestimate; paper Eq. 3-5).",
		get:  func(a AlgoSnapshot) HistogramSnapshot { return a.EstimateRatio },
	},
}

// WriteProm writes the registry snapshot as Prometheus text
// exposition. Safe on a nil registry (exports only the process
// gauges, all zero).
func (r *Registry) WriteProm(w io.Writer) error {
	return writeProm(w, r.Snapshot())
}

func writeProm(w io.Writer, s Snapshot) error {
	p := trace.NewPromWriter(w)

	p.Header("distjoin_registry_uptime_seconds", "Seconds since the observability registry was created.", "gauge")
	p.Sample("distjoin_registry_uptime_seconds", "", s.UptimeSeconds)
	p.Header("distjoin_inflight_queries", "Number of queries currently executing.", "gauge")
	p.Sample("distjoin_inflight_queries", "", float64(len(s.InFlight)))

	if len(s.Algos) > 0 {
		p.Header("distjoin_queries_total", "Completed queries, by algorithm.", "counter")
		for _, a := range s.Algos {
			p.Sample("distjoin_queries_total", algoLabel(a.Algo), float64(a.Queries))
		}
		p.Header("distjoin_query_errors_total", "Completed queries that returned an error, by algorithm.", "counter")
		for _, a := range s.Algos {
			p.Sample("distjoin_query_errors_total", algoLabel(a.Algo), float64(a.Errors))
		}

		// The per-query Collector families, aggregated per algorithm.
		// trace.PromFields enumerates by reflection, so a counter added
		// to metrics.Collector automatically appears here too.
		for _, f := range trace.PromFields() {
			p.Header(f.Name, f.Help+" Aggregated across completed queries, by algorithm.", f.Type())
			for _, a := range s.Algos {
				p.Sample(f.Name, algoLabel(a.Algo), f.Value(&a.Stats))
			}
		}

		for _, rh := range registryHistograms {
			p.Header(rh.name, rh.help, "histogram")
			for _, a := range s.Algos {
				writeHistogram(p, rh.name, algoLabel(a.Algo), rh.get(a))
			}
		}

		p.Header("distjoin_edmax_corrections_total",
			"eDmax estimates recorded, by algorithm and correction mode (initial = Eq. 3, arithmetic = Eq. 4, geometric = Eq. 5, override = caller-supplied).",
			"counter")
		for _, a := range s.Algos {
			modes := make([]string, 0, len(a.Corrections))
			for m := range a.Corrections {
				modes = append(modes, m)
			}
			sort.Strings(modes)
			for _, m := range modes {
				p.Sample("distjoin_edmax_corrections_total",
					algoLabel(a.Algo)+","+trace.PromLabel("mode", m),
					float64(a.Corrections[m]))
			}
		}
		p.Header("distjoin_edmax_underestimates_total",
			"eDmax estimates that undershot the realized cutoff (compensation territory), by algorithm.", "counter")
		for _, a := range s.Algos {
			p.Sample("distjoin_edmax_underestimates_total", algoLabel(a.Algo), float64(a.Underestimates))
		}
		p.Header("distjoin_edmax_overestimates_total",
			"eDmax estimates at or above the realized cutoff, by algorithm.", "counter")
		for _, a := range s.Algos {
			p.Sample("distjoin_edmax_overestimates_total", algoLabel(a.Algo), float64(a.Overestimates))
		}
	}
	if s.Serving != nil {
		writeServingProm(p, s.Serving)
	}
	return p.Err()
}
