package join

// Test-only mutation hooks.
//
// The deterministic simulation harness (internal/simtest) must be able
// to prove that it would actually catch a pruning bug — a harness that
// never fails is indistinguishable from a harness that cannot fail.
// SetPruneMutation deliberately breaks the real-distance pruning
// filter of AM-KDJ's aggressive stage by scaling the qDmax cutoff:
// with a scale below 1, child pairs whose distance lies in
// (scale*qDmax, qDmax] are wrongly discarded. Because the compensation
// stage replays only the *unexamined* remainder of each bookkept pair
// (examined-and-rejected children are assumed correctly rejected),
// those pairs are unrecoverable and the join silently returns wrong
// k-nearest pairs — exactly the bug class the differential oracle
// exists to catch.
//
// The hook is process-global and not synchronized: it must only be
// flipped on the goroutine that runs the join, with no query in
// flight.

// mutantPruneScale scales the aggressive-stage real-distance cutoff.
// 1 (the default) is the correct algorithm.
var mutantPruneScale = 1.0

// SetPruneMutation installs the deliberate pruning bug used by the
// harness self-test and returns a func that restores correctness.
// Callers must restore before any concurrent or correct-path use.
func SetPruneMutation(scale float64) (restore func()) {
	prev := mutantPruneScale
	mutantPruneScale = scale
	return func() { mutantPruneScale = prev }
}

// mutatedCutoff applies the active pruning mutation to an
// aggressive-stage real-distance cutoff.
func mutatedCutoff(c float64) float64 {
	if mutantPruneScale == 1.0 {
		return c
	}
	return c * mutantPruneScale
}
