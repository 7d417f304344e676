// Command benchdiff compares two performance records produced by
// `distjoin-bench -bench-json` and exits non-zero when the new record
// regresses past the threshold.
//
// Usage:
//
//	benchdiff -old BENCH_17.json -new bench-new.json [-threshold 0.25]
//	          [-time-threshold 0] [-abs-floor 64] [-q]
//
// Gating logic (see internal/benchrec): the deterministic cost
// counters of serial entries (distance computations, queue insertions,
// node accesses, modeled page I/O, compensation stages, result
// cardinality) fail the gate when they grow more than -threshold
// relative to the baseline and by at least -abs-floor units. Wall
// clock and parallel-entry counters are reported as notes only, unless
// -time-threshold is set, which turns wall-clock growth into a gating
// failure too (for dedicated, quiet benchmark hosts).
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
		timeThr   = flag.Float64("time-threshold", 0, "relative wall-clock growth that fails the gate (0 = wall time is informational)")
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
		Threshold:     *threshold,
		TimeThreshold: *timeThr,
		AbsFloor:      *absFloor,
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
	if benchrec.Gating(findings) {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL: regression past %.0f%% threshold\n", *threshold*100)
		os.Exit(1)
	}
	if len(findings) == 0 {
		fmt.Println("benchdiff: OK: no findings")
	} else {
		fmt.Println("benchdiff: OK: notes only, nothing gating")
	}
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
	fmt.Printf("%-24s %14s %14s %10s %12s\n",
		"entry", "dist calcs", "queue inserts", "wall (s)", "wall Δ")
	baseline := make(map[string]bool, len(old.Entries))
	for _, oe := range old.Entries {
		baseline[oe.Name] = true
		ne, ok := byName[oe.Name]
		if !ok {
			continue // Compare already errored on this
		}
		delta := "n/a"
		if oe.WallSeconds > 0 {
			delta = fmt.Sprintf("%+.1f%%", (ne.WallSeconds/oe.WallSeconds-1)*100)
		}
		fmt.Printf("%-24s %6d → %6d %6d → %6d %10.4f %12s\n",
			oe.Name, oe.DistCalcs, ne.DistCalcs,
			oe.QueueInserts, ne.QueueInserts, ne.WallSeconds, delta)
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
		fmt.Printf("%-32s %14d %14d %10.4f\n",
			ne.Name, ne.DistCalcs, ne.QueueInserts, ne.WallSeconds)
	}
}
