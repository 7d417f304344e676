// Command benchdiff compares two performance records produced by
// `distjoin-bench -bench-json` and exits non-zero when the new record
// regresses past the threshold.
//
// Usage:
//
//	benchdiff -old BENCH_39.json -new bench-new.json [-threshold 0.25]
//	          [-abs-floor 64] [-q]
//
// Gating logic (see internal/benchrec): the deterministic cost
// counters (distance computations, queue insertions, node accesses,
// modeled page I/O, compensation stages) fail the gate when they grow
// more than -threshold relative to the baseline and by at least
// -abs-floor units; a changed result cardinality always fails it. The
// records hold no wall-clock time: that is the repository benchmark's
// (benchmark/).
package main

import (
	"flag"
	"fmt"
	"os"

	"distjoin/internal/benchrec"
)

func main() {
	var (
		oldPath   = flag.String("old", "", "baseline record (required)")
		newPath   = flag.String("new", "", "candidate record (required)")
		threshold = flag.Float64("threshold", 0.25, "relative counter growth that fails the gate")
		absFloor  = flag.Int64("abs-floor", 64, "ignore counter growth below this many units")
		quiet     = flag.Bool("q", false, "print only findings (suppress the per-entry summary)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}

	old, err := benchrec.ReadFile(*oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := benchrec.ReadFile(*newPath)
	if err != nil {
		fatal(err)
	}
	findings, err := benchrec.Compare(old, cur, benchrec.Options{
		Threshold: *threshold,
		AbsFloor:  *absFloor,
	})
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		printSummary(old, cur)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL: regression past %.0f%% threshold\n", *threshold*100)
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK: no findings")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}

// printSummary renders an aligned old-vs-new table of the headline
// numbers for every baseline entry.
func printSummary(old, cur *benchrec.Record) {
	byName := make(map[string]benchrec.Entry, len(cur.Entries))
	for _, e := range cur.Entries {
		byName[e.Name] = e
	}
	fmt.Printf("baseline scale=%g seed=%d (%s), candidate (%s)\n",
		old.Scale, old.Seed, old.CreatedAt, cur.CreatedAt)
	fmt.Printf("%-24s %14s %14s\n", "entry", "dist calcs", "queue inserts")
	baseline := make(map[string]bool, len(old.Entries))
	for _, oe := range old.Entries {
		baseline[oe.Name] = true
		ne, ok := byName[oe.Name]
		if !ok {
			continue // Compare already errored on this
		}
		fmt.Printf("%-24s %6d → %6d %6d → %6d\n",
			oe.Name, oe.DistCalcs, ne.DistCalcs, oe.QueueInserts, ne.QueueInserts)
	}
	// Entries only the candidate records (a series added before the
	// baseline is regenerated) are fresh coverage:
	// informational, never gating, but worth surfacing so new series
	// don't ship invisibly.
	first := true
	for _, ne := range cur.Entries {
		if baseline[ne.Name] {
			continue
		}
		if first {
			fmt.Println("new series (informational, not in baseline):")
			first = false
		}
		fmt.Printf("%-32s %14d %14d\n", ne.Name, ne.DistCalcs, ne.QueueInserts)
	}
}
