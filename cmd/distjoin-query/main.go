// Command distjoin-query runs an ad-hoc distance join between two
// data sets generated by distjoin-gen and prints the nearest pairs
// plus the query's performance counters.
//
// Usage:
//
//	distjoin-query -left streets.djds -right hydro.djds -k 10
//	               [-algo am|b|hs|sj] [-incremental] [-queue-mem bytes]
//	               [-self] [-within d] [-all-nearest] [-show 10]
//	               [-trace out.json] [-metrics-format json|prom]
//
// Modes: by default the k nearest pairs are reported; -within d streams
// all pairs within distance d; -all-nearest reports each left object's
// nearest right object; -self treats the join as a self-join
// (deduplicated unordered pairs; use the same file for -left/-right).
//
// Observability: -trace writes the query's structured stage events as
// JSON; -metrics-format replaces the human-readable stats footer with
// the counters as JSON or Prometheus text on stdout. A live
// observability surface (/metrics, /queries, /debug/pprof/) is
// distjoin-server's job.
package main

import (
	"flag"
	"fmt"
	"os"

	"distjoin"
	"distjoin/internal/datagen"
)

func main() {
	var (
		leftPath  = flag.String("left", "", "left dataset file (required)")
		rightPath = flag.String("right", "", "right dataset file (required)")
		k         = flag.Int("k", 10, "number of nearest pairs")
		algo      = flag.String("algo", "am", "algorithm: am, b, hs, sj")
		incr      = flag.Bool("incremental", false, "use the incremental join (am or hs)")
		queueMem  = flag.Int("queue-mem", 0, "in-memory main queue bytes")
		self      = flag.Bool("self", false, "self-join semantics (dedup unordered pairs)")
		within    = flag.Float64("within", -1, "stream all pairs within this distance instead of the k nearest")
		allNear   = flag.Bool("all-nearest", false, "report each left object's nearest right object")
		show      = flag.Int("show", 10, "number of result pairs to print")
		tracePath = flag.String("trace", "", "write the query's structured stage events as JSON to this file")
		mFormat   = flag.String("metrics-format", "", "print the query's counters to stdout as \"json\" or \"prom\" instead of the text footer")
	)
	flag.Parse()
	if *leftPath == "" || *rightPath == "" {
		fmt.Fprintln(os.Stderr, "distjoin-query: -left and -right are required")
		flag.Usage()
		os.Exit(2)
	}
	if *mFormat != "" && *mFormat != "json" && *mFormat != "prom" {
		fmt.Fprintf(os.Stderr, "distjoin-query: -metrics-format must be \"json\" or \"prom\", got %q\n", *mFormat)
		os.Exit(2)
	}

	left, err := loadIndex(*leftPath)
	check(err)
	right, err := loadIndex(*rightPath)
	check(err)
	fmt.Printf("left: %d objects, height %d; right: %d objects, height %d\n",
		left.Len(), left.Height(), right.Len(), right.Height())

	var stats distjoin.Stats
	opts := &distjoin.Options{QueueMemBytes: *queueMem, Stats: &stats, SelfJoin: *self}
	var tr *distjoin.Tracer
	if *tracePath != "" {
		tr = distjoin.NewTracer(0) // default capacity
		opts.Trace = tr
	}
	switch *algo {
	case "am":
		opts.Algorithm = distjoin.AMKDJ
	case "b":
		opts.Algorithm = distjoin.BKDJ
	case "hs":
		opts.Algorithm = distjoin.HSKDJ
	case "sj":
		opts.Algorithm = distjoin.SJSort
	default:
		fmt.Fprintf(os.Stderr, "distjoin-query: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}

	var pairs []distjoin.Pair
	switch {
	case *within >= 0:
		stats.Start()
		err = distjoin.WithinJoin(left, right, *within, opts, func(p distjoin.Pair) bool {
			pairs = append(pairs, p)
			return len(pairs) < 1_000_000 // hard cap for ad-hoc runs
		})
		check(err)
		stats.Finish()
	case *allNear:
		stats.Start()
		err = distjoin.AllNearest(left, right, opts, func(p distjoin.Pair) bool {
			pairs = append(pairs, p)
			return true
		})
		check(err)
		stats.Finish()
	case *incr:
		it, err := distjoin.IncrementalJoin(left, right, opts)
		check(err)
		stats.Start()
		for i := 0; i < *k; i++ {
			p, ok := it.Next()
			if !ok {
				check(it.Err())
				break
			}
			pairs = append(pairs, p)
		}
		stats.Finish()
	default:
		if opts.Algorithm == distjoin.SJSort {
			// SJ-SORT needs a distance bound; derive the oracle with
			// the default algorithm first (documented favorable
			// assumption of the paper's baseline).
			oracle, err := distjoin.KDistanceJoin(left, right, *k, nil)
			check(err)
			if len(oracle) > 0 {
				opts.MaxDist = oracle[len(oracle)-1].Dist
			}
		}
		pairs, err = distjoin.KDistanceJoin(left, right, *k, opts)
		check(err)
	}

	fmt.Printf("%d pairs (algorithm %v)\n", len(pairs), opts.Algorithm)
	for i, p := range pairs {
		if i >= *show {
			fmt.Printf("... %d more\n", len(pairs)-*show)
			break
		}
		fmt.Printf("%4d: left=%d right=%d dist=%.4f\n", i+1, p.LeftID, p.RightID, p.Dist)
	}
	switch *mFormat {
	case "json":
		check(distjoin.WriteStatsJSON(os.Stdout, &stats))
	case "prom":
		check(distjoin.WriteStatsProm(os.Stdout, &stats))
	default:
		fmt.Printf("stats: %v\n", &stats)
		fmt.Printf("       node accesses: %d physical / %d logical; response time %v\n",
			stats.NodeAccessesPhysical, stats.NodeAccessesLogical, stats.ResponseTime())
	}

	if tr != nil {
		f, err := os.Create(*tracePath)
		check(err)
		err = tr.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		check(err)
		fmt.Fprintf(os.Stderr, "wrote %d trace events (%d dropped) to %s\n",
			tr.Len(), tr.Dropped(), *tracePath)
	}
}

// loadIndex reads a dataset file (binary .djds or .csv, by extension)
// and bulk-loads it.
func loadIndex(path string) (*distjoin.Index, error) {
	items, err := datagen.Load(path)
	if err != nil {
		return nil, err
	}
	objs := make([]distjoin.Object, len(items))
	for i, it := range items {
		objs[i] = distjoin.Object{ID: it.Obj, Rect: it.Rect}
	}
	return distjoin.NewIndex(objs, nil)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "distjoin-query: %v\n", err)
		os.Exit(1)
	}
}
