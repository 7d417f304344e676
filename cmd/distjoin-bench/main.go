// Command distjoin-bench regenerates the paper's evaluation (§5): for
// every figure and table it runs the corresponding experiment on the
// TIGER-like synthetic workload and prints the same rows/series the
// paper reports, as aligned text or CSV.
//
// Usage:
//
//	distjoin-bench [-exp all|<id>] [-scale 0.05] [-seed N]
//	               [-queue-mem bytes] [-buffer bytes] [-csv]
//
// The experiment ids are the rows of experiments.Experiments;
// `distjoin-bench -h` lists them.
//
// scale=1.0 reproduces the paper's full data sizes (633,461 streets x
// 189,642 hydrographic objects, k up to 100,000); the default 0.05
// keeps the k/N ratios while finishing in minutes.
//
// Observability flags:
//
//	-trace out.json      run one traced AM-KDJ query (instead of -exp)
//	                     and write its stage events as JSON
//	-metrics-format f    with -trace: print the query's counters to
//	                     stdout as "json" or "prom" (Prometheus text)
//	-pprof addr          serve net/http/pprof on addr for the run
//
// Continuous-benchmark flags:
//
//	-bench-json out      run the perf suite (instead of -exp) and write
//	                     a schema-versioned record for cmd/benchdiff /
//	                     the CI regression gate
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"

	"distjoin/internal/benchrec"
	"distjoin/internal/experiments"
	"distjoin/internal/join"
	"distjoin/internal/metrics"
	"distjoin/internal/trace"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id ("+strings.Join(expIDs(), ", ")+")")
		scale     = flag.Float64("scale", 0.05, "workload scale relative to the paper's data sizes")
		seed      = flag.Int64("seed", 0, "data generator seed (0 = default)")
		queueMem  = flag.Int("queue-mem", 0, "in-memory main queue bytes (0 = paper's 512 KB)")
		buffer    = flag.Int("buffer", 0, "R-tree buffer pool bytes (0 = paper's 512 KB)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		svgDir    = flag.String("svg", "", "also write one SVG line chart per chartable table into this directory")
		tracePath = flag.String("trace", "", "run one traced AM-KDJ query (instead of -exp) and write its stage events as JSON to this file")
		traceK    = flag.Int("trace-k", 1000, "stopping cardinality k of the traced query")
		mFormat   = flag.String("metrics-format", "", "with -trace: print the traced query's metrics to stdout as \"json\" or \"prom\"")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
		benchJSON = flag.String("bench-json", "", "run the continuous-benchmark suite (instead of -exp) and write the perf record to this file")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "distjoin-bench: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	cfg := experiments.Config{
		Scale:         *scale,
		Seed:          *seed,
		QueueMemBytes: *queueMem,
		BufferBytes:   *buffer,
	}

	if *mFormat != "" && *mFormat != "json" && *mFormat != "prom" {
		fmt.Fprintf(os.Stderr, "distjoin-bench: -metrics-format must be \"json\" or \"prom\", got %q\n", *mFormat)
		os.Exit(1)
	}

	if *tracePath != "" {
		if err := runTraced(cfg, *traceK, *tracePath, *mFormat); err != nil {
			fmt.Fprintf(os.Stderr, "distjoin-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		rec, err := experiments.PerfRecord(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "distjoin-bench: %v\n", err)
			os.Exit(1)
		}
		if err := benchrec.WriteFile(*benchJSON, rec); err != nil {
			fmt.Fprintf(os.Stderr, "distjoin-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d bench entries (schema %d, scale %g, seed %d) to %s\n",
			len(rec.Entries), rec.Schema, rec.Scale, rec.Seed, *benchJSON)
		return
	}

	tabs, err := run(*exp, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "distjoin-bench: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tabs {
		if *csv {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			t.CSV(os.Stdout)
			fmt.Println()
		} else {
			t.Fprint(os.Stdout)
		}
	}
	if *svgDir != "" {
		if err := writeSVGs(*svgDir, tabs); err != nil {
			fmt.Fprintf(os.Stderr, "distjoin-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeSVGs renders every chartable table as <dir>/<id>.svg;
// non-numeric tables (e.g. table2) are skipped with a note.
func writeSVGs(dir string, tabs []*experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tabs {
		path := filepath.Join(dir, t.ID+".svg")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = t.SVG(f)
		cerr := f.Close()
		if err != nil {
			os.Remove(path)
			fmt.Fprintf(os.Stderr, "note: %s not chartable (%v)\n", t.ID, err)
			continue
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// traceCapacity bounds the traced query's event ring. Large enough
// that the stage markers of a -trace-k sized run are never overwritten
// by later expansion events (~13 MB at ~200 bytes/event).
const traceCapacity = 1 << 16

// runTraced executes one AM-KDJ query on the standard workload with a
// tracer installed and writes the event time line as JSON to path. The
// queue memory is deliberately small so the hybrid queue's spill/
// reload machinery fires, and the query runs twice when needed: once
// with the estimated eDmax and — if that run never left the aggressive
// stage — once more with a forced underestimate (half the true k-th
// pair distance), which guarantees a compensation pass appears in the
// trace. With -metrics-format the final run's counters go to stdout.
func runTraced(cfg experiments.Config, k int, path, metricsFormat string) error {
	if k <= 0 {
		return fmt.Errorf("-trace-k must be positive, got %d", k)
	}
	w, err := experiments.Load(cfg)
	if err != nil {
		return err
	}
	tr := trace.New(traceCapacity)
	// Small queue memory: at -trace-k scale the main queue overflows
	// its heap bound and writes pairs to disk segments, so the trace
	// contains queue_spill (and usually queue_reload) events.
	opts := join.Options{Trace: tr, QueueMemBytes: 8192}
	res, err := runTracedKDJ(w, k, opts)
	if err != nil {
		return err
	}
	if tr.CountKind(trace.KindCompensation) == 0 && len(res.pairs) > 0 {
		// The estimate covered k outright. Re-run with a guaranteed
		// underestimate: fewer than k pairs lie within half the true
		// k-th distance, so the aggressive stage must fall short and
		// the compensation stage must run.
		if dk := res.pairs[len(res.pairs)-1].Dist; dk > 0 {
			tr.Reset()
			opts.EDmax = dk / 2
			if res, err = runTracedKDJ(w, k, opts); err != nil {
				return err
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace events (%d dropped) to %s\n", tr.Len(), tr.Dropped(), path)
	switch metricsFormat {
	case "json":
		return trace.WriteMetricsJSON(os.Stdout, res.mc)
	case "prom":
		return trace.WriteMetricsProm(os.Stdout, res.mc)
	}
	return nil
}

// tracedRun carries one traced query's outputs.
type tracedRun struct {
	pairs []join.Result
	mc    *metrics.Collector
}

// runTracedKDJ runs one cold AM-KDJ query with opts and returns its
// results and counters.
func runTracedKDJ(w *experiments.Workload, k int, opts join.Options) (tracedRun, error) {
	if err := w.ColdStart(); err != nil {
		return tracedRun{}, err
	}
	mc := &metrics.Collector{}
	opts.Metrics = mc
	pairs, err := join.AMKDJ(w.Streets, w.Hydro, k, opts)
	if err != nil {
		return tracedRun{}, err
	}
	return tracedRun{pairs: pairs, mc: mc}, nil
}

// expIDs lists what -exp accepts, in the order "all" runs them.
func expIDs() []string {
	ids := []string{"all"}
	for _, e := range experiments.Experiments {
		ids = append(ids, e.ID)
	}
	return ids
}

func run(exp string, cfg experiments.Config) ([]*experiments.Table, error) {
	return experiments.Run(exp, cfg)
}
