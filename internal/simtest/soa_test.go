package simtest

import (
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/obsrv"
	"distjoin/internal/storage"
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
// batch-kernel bug: with the planted off-by-one in MinDistSqBatch tail
// handling installed (the last lane of every batch duplicates its
// neighbor — the classic vectorized-rewrite failure), the differential
// oracle must flag wrong results within a bounded number of seeds.
// Mirrors TestMutationSmoke's pruning-cutoff mutation.
func TestBatchTailMutationSmoke(t *testing.T) {
	const maxSeeds = 100
	restore := geom.SetBatchTailMutation()
	defer restore()
	for seed := int64(1); seed <= maxSeeds; seed++ {
		s := FromSeed(seed)
		e, err := newEnv(s, storage.NewMemStore(s.PageSize), storage.NewMemStore(s.PageSize), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := e.runAlgo("AM-KDJ", e.options(nil, nil, obsrv.NewRegistry()), len(e.ref))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := e.compareExact("batch-tail-smoke", "AM-KDJ", got); err != nil {
			t.Logf("batch-tail mutation caught at seed %d: %v", seed, err)
			restore()
			// The restored kernel must pass again on the same seed,
			// pinning that the failure came from the mutation.
			got, err := e.runAlgo("AM-KDJ", e.options(nil, nil, obsrv.NewRegistry()), len(e.ref))
			if err != nil {
				t.Fatalf("seed %d after restore: %v", seed, err)
			}
			if err := e.compareExact("batch-tail-smoke", "AM-KDJ", got); err != nil {
				t.Fatalf("restored kernel still failing: %v", err)
			}
			return
		}
	}
	t.Fatalf("batch-tail mutation survived %d seeds undetected — the oracle is blind to the batch path", maxSeeds)
}
