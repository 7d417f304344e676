package simtest

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"distjoin/internal/join"
	"distjoin/internal/memotest"
	"distjoin/internal/obsrv"
	"distjoin/internal/storage"
)

// TestCheckSeeds sweeps the logic battery (differential oracle plus
// every metamorphic invariant) over a block of consecutive seeds.
func TestCheckSeeds(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= n; seed++ {
		if err := Check(FromSeed(seed)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultSchedules explores injected-fault schedules for a handful
// of scenarios chosen to cover tight queue memory (spill/reload
// traffic) and self-join semantics. Point sampling keeps the default
// run quick; the nightly soak explores exhaustively via
// cmd/distjoin-sim -faults -points=0.
func TestFaultSchedules(t *testing.T) {
	points := 6
	seeds := []int64{2, 3, 15}
	if testing.Short() {
		points = 2
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		if err := ExploreFaults(FromSeed(seed), ExploreOpts{MaxPointsPerTarget: points}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMutationSmoke validates the harness itself: with a deliberately
// broken pruning cutoff installed, the differential oracle must catch
// the wrong results within a bounded number of seeds — a harness that
// cannot fail proves nothing.
func TestMutationSmoke(t *testing.T) {
	const maxSeeds = 100
	restore := join.SetPruneMutation(0.85)
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
		if err := e.compareExact("mutation-smoke", "AM-KDJ", got); err != nil {
			t.Logf("mutation caught at seed %d: %v", seed, err)
			restore()
			// The restored algorithm must pass again on the same seed —
			// pinning that the failure came from the mutation, not the
			// harness.
			got, err := e.runAlgo("AM-KDJ", e.options(nil, nil, obsrv.NewRegistry()), len(e.ref))
			if err != nil {
				t.Fatalf("seed %d after restore: %v", seed, err)
			}
			if err := e.compareExact("mutation-smoke", "AM-KDJ", got); err != nil {
				t.Fatalf("restored algorithm still failing: %v", err)
			}
			return
		}
	}
	t.Fatalf("pruning mutation survived %d seeds undetected — the differential oracle is blind", maxSeeds)
}

// TestFromSeedDeterministic pins the seed -> scenario map: two
// derivations of the same seed must be identical, including the
// materialized data.
func TestFromSeedDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := FromSeed(seed), FromSeed(seed)
		if a != b {
			t.Fatalf("seed %d: scenarios differ:\n%s\n%s", seed, a, b)
		}
		al, ar := a.Items()
		bl, br := b.Items()
		if len(al) != len(bl) || len(ar) != len(br) {
			t.Fatalf("seed %d: item counts differ", seed)
		}
		for i := range al {
			if al[i] != bl[i] {
				t.Fatalf("seed %d: left item %d differs", seed, i)
			}
		}
		for i := range ar {
			if ar[i] != br[i] {
				t.Fatalf("seed %d: right item %d differs", seed, i)
			}
		}
	}
}

// TestSelfJoinScenarioShape pins the self-join contract: both sides
// identical, SelfJoin reported.
func TestSelfJoinScenarioShape(t *testing.T) {
	found := false
	for seed := int64(1); seed <= 64; seed++ {
		s := FromSeed(seed)
		if s.Workload != WorkloadSelf {
			continue
		}
		found = true
		if !s.SelfJoin() {
			t.Fatalf("seed %d: self workload but SelfJoin() false", seed)
		}
		if s.NLeft != s.NRight || s.SubSeedL != s.SubSeedR {
			t.Fatalf("seed %d: self workload with asymmetric sides: %s", seed, s)
		}
	}
	if !found {
		t.Fatal("no self-join workload in 64 seeds — workload distribution broken")
	}
}

// TestPoolRegimesCovered pins that the scenario generator draws the
// tree pools on both sides of "holds the tree", so that warm-rerun and
// fault-count-warm compare fresh and used trees under every form the
// sweep-order memo takes: after one AM-KDJ run some scenario's left
// tree hands out no decoded node (pool short of the tree: permutations
// only), some hands out nothing else, and some ran out of room midway
// and holds both forms in one table.
func TestPoolRegimesCovered(t *testing.T) {
	var none, all, mixed int
	for seed := int64(1); seed <= 40; seed++ {
		s := FromSeed(seed)
		e, err := newEnv(s, storage.NewMemStore(s.PageSize), storage.NewMemStore(s.PageSize), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := e.runAlgo("AM-KDJ", e.options(nil, nil, obsrv.NewRegistry()), len(e.ref)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		memo := memotest.Read(t, e.lt)
		nodes, perms := len(memo.Nodes), memo.Perms
		holds := e.lt.Pool().Frames() > e.lt.Pool().Store().NumPages()
		switch {
		case nodes > 0 && !holds:
			t.Fatalf("%s: %d decoded nodes in a tree whose pool has no room for them", s, nodes)
		case nodes == 0 && perms > 0:
			none++
		case nodes > 0 && perms == 0:
			all++
		case nodes > 0:
			mixed++
		}
	}
	if none == 0 || all == 0 || mixed == 0 {
		t.Fatalf("40 seeds reached permutations only %d times, decoded nodes only %d, both %d: each regime must occur",
			none, all, mixed)
	}
}

// TestParseScheduleRoundTrip checks ParseSchedule against String for
// every algorithm/target combination, plus the error paths.
func TestParseScheduleRoundTrip(t *testing.T) {
	for _, algo := range Algorithms {
		for _, target := range faultTargets {
			in := &FaultSchedule{Algo: algo, Target: target, Point: 7}
			out, err := ParseSchedule(in.String())
			if err != nil {
				t.Fatalf("ParseSchedule(%q): %v", in.String(), err)
			}
			if *out != *in {
				t.Fatalf("round trip: %+v != %+v", out, in)
			}
		}
	}
	for _, bad := range []string{
		"", "AM-KDJ", "AM-KDJ:queue", "NOPE:queue:1", "AM-KDJ:disk:1",
		"AM-KDJ:queue:x", "AM-KDJ:queue:-1", "AM-KDJ:queue:1:2",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// TestRunScheduleRepro pins the CLI repro path: a schedule produced by
// exploration must be runnable standalone.
func TestRunScheduleRepro(t *testing.T) {
	s := FromSeed(2)
	for _, spec := range []string{"AM-KDJ:queue:0", "AM-IDJ:reload:0", "B-KDJ:ltree:2", "HS-KDJ:spill:0"} {
		sched, err := ParseSchedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunSchedule(s, sched); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	// A point the census proves unreachable is a usage error — the
	// "repro" would test nothing — not a hollow pass.
	sched := &FaultSchedule{Algo: "AM-KDJ", Target: TargetLeftTree, Point: 1 << 20}
	if err := RunSchedule(s, sched); !errors.Is(err, ErrScheduleNeverFires) {
		t.Fatalf("unreachable point: got %v, want ErrScheduleNeverFires", err)
	}
}

// TestSamplePoints pins the point sampler: exhaustive below the cap,
// strided (first point included, bounds respected, strictly
// increasing) above it.
func TestSamplePoints(t *testing.T) {
	if got := samplePoints(0, 4); got != nil {
		t.Fatalf("samplePoints(0,4) = %v", got)
	}
	if got := samplePoints(3, 0); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("samplePoints(3,0) = %v", got)
	}
	got := samplePoints(1000, 8)
	if len(got) != 8 || got[0] != 0 {
		t.Fatalf("samplePoints(1000,8) = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] || got[i] >= 1000 {
			t.Fatalf("samplePoints(1000,8) not strictly increasing in range: %v", got)
		}
	}
}

// TestFailureRepro pins the one-line repro format the CLI parses back.
func TestFailureRepro(t *testing.T) {
	f := &Failure{
		Scenario: FromSeed(42),
		Schedule: &FaultSchedule{Algo: "AM-KDJ", Target: TargetReload, Point: 3},
		Check:    "fault",
		Detail:   "boom",
	}
	msg := f.Error()
	for _, want := range []string{"-seed=42", "-schedule=AM-KDJ:reload:3", "[fault]", "boom", "cmd/distjoin-sim"} {
		if !contains(msg, want) {
			t.Fatalf("failure message %q missing %q", msg, want)
		}
	}
}

// TestFailureReproFromBytes pins the repro of a scenario the fuzzer
// decoded: FromBytes clamps sizes and k, so `-seed=` would rebuild a
// different scenario; the message carries the input as a corpus-file
// literal that decodes back to the failing scenario.
func TestFailureReproFromBytes(t *testing.T) {
	in := []byte(",\x01\x00\x00\x00\x00\x00\x00") // the committed amidj-refined-key-collision input
	s := FromBytes(in)
	if s == FromSeed(s.Seed) {
		t.Fatal("FromBytes built what FromSeed builds; the test needs an input it clamps")
	}
	msg := (&Failure{Scenario: s, Check: "differential", Detail: "boom"}).Error()
	lit := fmt.Sprintf("[]byte(%q)", in)
	for _, want := range []string{lit, "go test fuzz v1", "go test -run 'FuzzScenario/", "./internal/simtest"} {
		if !contains(msg, want) {
			t.Fatalf("failure message %q missing %q", msg, want)
		}
	}
	if contains(msg, "-seed=") {
		t.Fatalf("failure message %q offers a seed repro that does not reproduce", msg)
	}
	back, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
	if err != nil || FromBytes([]byte(back)) != s {
		t.Fatalf("literal %s does not decode back to the scenario (%v)", lit, err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSoak is the nightly long-haul run: a time-boxed seed sweep with
// sampled fault exploration, enabled by DISTJOIN_SOAK=full (the
// nightly workflow sets it). The default run does a token pass so the
// code path stays exercised.
func TestSoak(t *testing.T) {
	budget := 2 * time.Second
	faultPoints := 2
	if os.Getenv("DISTJOIN_SOAK") == "full" {
		budget = 3 * time.Minute
		faultPoints = 8
	} else if testing.Short() {
		t.Skip("soak in -short mode")
	}
	deadline := time.Now().Add(budget)
	seed := int64(1000) // disjoint from the fixed sweeps above
	checked := 0
	for time.Now().Before(deadline) {
		s := FromSeed(seed)
		if err := Check(s); err != nil {
			t.Fatal(err)
		}
		if err := ExploreFaults(s, ExploreOpts{
			Algos:              []string{"AM-KDJ", "AM-IDJ"},
			MaxPointsPerTarget: faultPoints,
		}); err != nil {
			t.Fatal(err)
		}
		seed++
		checked++
	}
	t.Logf("soak: %d seeds checked in %v", checked, budget)
}
