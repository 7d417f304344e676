package distjoin

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"distjoin/internal/join"
)

// TestPairIsResult: the facade hands the engine's []join.Result over as
// a []Pair in place, which is sound only while the two are one layout.
// The offsets are checked where asPairs is declared, at compile time;
// this checks that field i of each has one type and one offset.
func TestPairIsResult(t *testing.T) {
	p, r := reflect.TypeOf(Pair{}), reflect.TypeOf(join.Result{})
	if p.Size() != r.Size() || p.NumField() != r.NumField() {
		t.Fatalf("Pair is %d bytes in %d fields, join.Result %d bytes in %d", p.Size(), p.NumField(), r.Size(), r.NumField())
	}
	for i := 0; i < p.NumField(); i++ {
		pf, rf := p.Field(i), r.Field(i)
		if pf.Type != rf.Type || pf.Offset != rf.Offset {
			t.Errorf("field %d: Pair.%s %v at %d, join.Result.%s %v at %d", i, pf.Name, pf.Type, pf.Offset, rf.Name, rf.Type, rf.Offset)
		}
	}
}

// TestKDistanceJoinAllocs pins what a ranked query allocates once the
// pools are warm: its answer, k Pairs, and a slack for the query's own
// bookkeeping. On this data the bookkeeping is about 5 KB: the
// context, the main queue's and the cutoff tracker's headers, and the
// closures. The main queue's heap, the distance queue's heap and
// AM-KDJ's compensation list come from pools and cost nothing. Were the
// main queue's heap grown per query, it alone would be several times
// the answer; were the distance queue's, it would add 16 KB and break
// the slack, and so would a compensation list grown per query (134
// entries of 136 bytes, before its append growth).
func TestKDistanceJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under the race detector; allocation counts are not meaningful")
	}
	rng := rand.New(rand.NewSource(11))
	left, err := NewIndex(randObjects(rng, 3000, 10000, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewIndex(randObjects(rng, 3000, 10000, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, runs = 1000, 20
	const answer = k * int(unsafe.Sizeof(Pair{}))
	const slack = 16 << 10
	run := func() {
		got, err := KDistanceJoin(left, right, k, nil)
		if err != nil || len(got) != k {
			t.Fatalf("%d pairs, %v", len(got), err)
		}
	}
	// A collection empties sync.Pools, and a goroutine that moves to
	// another P misses what it put in the last one's private slot. With
	// no collection and one P, what is measured is a warm query's cost,
	// not when the collector ran or where the scheduler put the test.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		run() // warm the pools and the indexes' sweep-order memos
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := int(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d bytes per run: answer %d, rest %d", perRun, answer, perRun-answer)
	if perRun > answer+slack {
		t.Errorf("a warm k=%d query allocates %d bytes, want at most the answer's %d plus %d", k, perRun, answer, slack)
	}
}

// TestIncrementalJoinAllocs pins what a warm AM-IDJ drain allocates: a
// slack for the query's own bookkeeping (the iterator, the context, the
// main queue's and the compensation list's headers, the closures), not
// a cost per stage or per bookkept pair. The main queue's heap, the
// compensation list and its index come from pools and are reused in
// place stage after stage. On this data the drain runs 86 stages,
// bookkeeps 87 pairs and allocates about 2 KB in 10 allocations; with
// an entry allocated per bookkept pair and an index per stage it
// allocated about 24 KB in 116.
func TestIncrementalJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under the race detector; allocation counts are not meaningful")
	}
	rng := rand.New(rand.NewSource(12))
	left, err := NewIndex(randObjects(rng, 2000, 10000, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewIndex(randObjects(rng, 1500, 10000, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n, runs = 3000, 20
	const slack = 8 << 10
	var stats Stats
	run := func() {
		stats = Stats{}
		it, err := IncrementalJoin(left, right, &Options{BatchK: 40, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, ok := it.Next(); !ok {
				t.Fatalf("the join ended after %d pairs: %v", i, it.Err())
			}
		}
		it.Close()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		run() // warm the pools and the indexes' sweep-order memos
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := int(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d bytes and %d allocations per drain of %d pairs over %d stages, %d pairs bookkept",
		perRun, (after.Mallocs-before.Mallocs)/runs, n, stats.CompensationStages, stats.CompQueueInserts)
	if perRun > slack {
		t.Errorf("a warm drain of %d pairs allocates %d bytes, want at most %d", n, perRun, slack)
	}
}
