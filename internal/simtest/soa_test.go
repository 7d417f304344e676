package simtest

import (
	"testing"

	"distjoin/internal/join"
)

// TestSoAIdentityBattery extends the standard seed sweep with a fresh
// block of seeds as the struct-of-arrays identity battery: the join
// engine now decodes leaves into SoA columns and refines leaf pairs
// through the geom batch kernels, and every algorithm's output must
// stay exactly what the scalar reference produces. The differential
// oracle compares against a brute-force computation that never touches
// the SoA path, so any divergence — ordering, distance bits, result
// set — fails the battery. (Seeds 1..40 run in TestCheckSeeds; this
// block extends the swept range rather than re-checking it.)
func TestSoAIdentityBattery(t *testing.T) {
	lo, hi := int64(41), int64(70)
	if testing.Short() {
		hi = lo + 7
	}
	for seed := lo; seed <= hi; seed++ {
		if err := Check(FromSeed(seed)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchTailMutationSmoke validates that the oracle would catch a
// batch-kernel bug: with an off-by-one in tail handling planted in the
// query (the last lane of every batched distance computation duplicates
// its neighbor — the classic vectorized-rewrite failure), the
// differential oracle must flag wrong results within a bounded number
// of seeds. Mirrors TestMutationSmoke's broken pruning cutoff.
func TestBatchTailMutationSmoke(t *testing.T) {
	plantedBugSmoke(t, "batch-tail-smoke", func(a *join.Ablation) { a.BatchTail = true })
}
