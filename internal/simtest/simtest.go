// Package simtest is the deterministic simulation harness for the
// distance-join engine: seed-reproducible randomized scenarios run
// through every algorithm (HS-KDJ, B-KDJ, AM-KDJ, SJ-SORT and the
// HS-IDJ / AM-IDJ incremental iterators) and are checked three ways —
//
//   - differentially, against the brute-force oracle and against each
//     other under the engine's canonical tie-break (the paper's §4.1
//     claim: the adaptive multi-stage algorithms return *exactly* the
//     k closest pairs HS-KDJ returns, despite aggressive pruning and
//     compensation);
//   - metamorphically, through invariants that need no oracle at all:
//     translation invariance, power-of-two scale equivariance,
//     k-prefix monotonicity, WithinJoin(Dmax_k) ⊇ top-k, and
//     warm-index rerun identity (results and counters);
//   - under fault schedules: every I/O point (R-tree page reads, main
//     queue store operations, hybridq spill/reload transitions) is
//     counted on a clean run and then failed one at a time, proving
//     each algorithm fails closed — a surfaced error wrapping the
//     injected fault, idempotent iterator Close, no goroutine leaks,
//     no query left in flight, and engine state clean enough that an
//     immediate re-run on the same trees reproduces the reference.
//
// Every failure renders as a single line carrying the -seed= (and,
// for fault failures, -schedule=) flags that reproduce it under
// cmd/distjoin-sim; a failure on a scenario the fuzzer decoded from
// bytes carries those bytes as a corpus file instead, because the seed
// alone builds a different scenario. The harness is itself validated by
// two smoke tests: with a bug planted in one query — a broken pruning
// cutoff (join.Ablation.PruneScale) or a batch-distance tail off by one
// (join.Ablation.BatchTail) — the differential oracle must catch it
// within a bounded number of seeds.
package simtest

import "fmt"

// Failure is one detected violation, carrying everything needed to
// reproduce it from the command line.
type Failure struct {
	// Scenario is the failing configuration.
	Scenario Scenario
	// Schedule is the fault schedule in effect, nil for logic
	// (differential / metamorphic) failures.
	Schedule *FaultSchedule
	// Check names the violated oracle or invariant.
	Check string
	// Detail is the human-readable mismatch description.
	Detail string
}

// Error renders the failure with its one-line repro.
func (f *Failure) Error() string {
	return fmt.Sprintf("simtest FAIL [%s] %s | scenario: %s | repro: %s",
		f.Check, f.Detail, f.Scenario, f.repro())
}

// repro is the command that rebuilds the failing scenario: the seed for
// distjoin-sim, or, for a scenario FromBytes decoded, its input as a
// fuzz corpus file and the go test line that replays it.
func (f *Failure) repro() string {
	if b := f.Scenario.Bytes; b != "" {
		return fmt.Sprintf("save the two lines \"go test fuzz v1\" and []byte(%q) as internal/simtest/testdata/fuzz/FuzzScenario/<name>, then go test -run 'FuzzScenario/<name>' ./internal/simtest", b)
	}
	repro := fmt.Sprintf("go run ./cmd/distjoin-sim -seed=%d", f.Scenario.Seed)
	if f.Schedule != nil {
		repro += fmt.Sprintf(" -schedule=%s", f.Schedule)
	}
	return repro
}

// failf builds a *Failure as an error.
func failf(s Scenario, sched *FaultSchedule, check, format string, args ...any) error {
	return &Failure{Scenario: s, Schedule: sched, Check: check, Detail: fmt.Sprintf(format, args...)}
}
