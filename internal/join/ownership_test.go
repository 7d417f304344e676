package join

import (
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
)

// TestRangeSlabCarve: carved slices never overlap, keep their contents
// across later carves (including the ones that start a new chunk), and a
// request no chunk could hold is still served.
func TestRangeSlabCarve(t *testing.T) {
	var slab rangeSlab
	sizes := []int{0, 1, 102, 102, 7, rangeSlabFirstChunk, 60, rangeSlabMaxChunk + 5, 102, 3000, 3000, 3000, 102}
	var carved [][]anchorRange
	for round := 0; round < 4; round++ {
		for _, n := range sizes {
			s := slab.carve(n)
			if len(s) != n || cap(s) != n {
				t.Fatalf("carve(%d) returned len %d cap %d", n, len(s), cap(s))
			}
			stamp := anchorRange{from: uint16(len(carved)), to: uint16(n)}
			for i := range s {
				s[i] = stamp
			}
			carved = append(carved, s)
		}
	}
	for id, s := range carved {
		want := anchorRange{from: uint16(id), to: uint16(len(s))}
		for i, got := range s {
			if got != want {
				t.Fatalf("slice %d element %d reads %+v after later carves, want %+v: carved slices overlap", id, i, got, want)
			}
		}
	}
}

// TestQueuedPairSurvivesScratchReuse: the sweep lends emit its one
// scratch pair and rebuilds it for the next candidate, so whatever the
// queue took must be a copy. An emit that scribbles over the pair after
// pushing it must get back, pair for pair, what it pushed — from the
// in-memory heap and from spilled segments alike (the queue holds nine
// pairs in memory).
func TestQueuedPairSurvivesScratchReuse(t *testing.T) {
	l, r := memoTestData()
	c, err := newContext(buildTree(t, l, 64), buildTree(t, r, 64), Options{QueueMemBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ct := newCutoffTracker(c, 50, c.dqPolicy)
	run, err := c.ex.expansion(c.rootPair(), 400)
	if err != nil {
		t.Fatal(err)
	}
	run.fixCutoff(400)
	var want []hybridq.Pair
	run.emit = func(p *hybridq.Pair) bool {
		before := *p
		if !ct.push(p) {
			return false
		}
		want = append(want, before)
		// Everything deliver rebuilds per candidate.
		p.Dist, p.Left, p.Right = -1, ^uint64(0), ^uint64(0)
		p.LeftRect, p.RightRect = geom.Rect{}, geom.Rect{}
		return true
	}
	run.run()
	if len(want) < 20 || c.queue.Segments() == 0 {
		t.Fatalf("%d pairs queued over %d segments; the test needs both the heap and the disk path", len(want), c.queue.Segments())
	}
	if run.children != int64(len(want)) {
		t.Errorf("run counted %d children, emit accepted %d", run.children, len(want))
	}
	sort.Slice(want, func(i, j int) bool { return hybridq.PairLess(&want[i], &want[j]) })
	for i, w := range want {
		got, ok := c.queue.Pop()
		if !ok {
			t.Fatalf("queue empty after %d of %d pairs: %v", i, len(want), c.queue.Err())
		}
		if got != w {
			t.Fatalf("pair %d popped as\n %+v, pushed as\n %+v", i, got, w)
		}
	}
	if _, ok := c.queue.Pop(); ok {
		t.Error("queue holds more pairs than emit pushed")
	}
}

// TestAMIDJReRecordsRangesInPlace pulls results through at least twenty
// stages of one iterator. A bookkept pair's range storage is allocated
// by its first expansion; every later stage must re-record into that
// same block (its address never changes while the pair is live), so the
// iterator's range memory follows its live compMap and not the number of
// stages it has run, and a warm re-expansion allocates nothing at all.
// Results still equal brute force.
func TestAMIDJReRecordsRangesInPlace(t *testing.T) {
	l, r := memoTestData()
	var mc metrics.Collector
	it, err := AMIDJ(buildTree(t, l, 16), buildTree(t, r, 16), Options{BatchK: 40, Metrics: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	block := func(rs sweepRanges) *anchorRange {
		if len(rs.l) > 0 {
			return &rs.l[0]
		}
		return &rs.r[0]
	}
	type sighting struct {
		home   *anchorRange
		cutoff float64
	}
	first := map[pairKey]sighting{}
	reRecorded := 0
	var got []Result
	for mc.CompensationStages < 20 && len(got) < 20000 {
		res, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, res)
		for key, ci := range it.compMap {
			seen, ok := first[key]
			if !ok {
				first[key] = sighting{home: block(ci.ranges), cutoff: ci.examCutoff}
				continue
			}
			if block(ci.ranges) != seen.home {
				t.Fatalf("after %d results (stage %d): pair %v keeps its ranges in a new block", len(got), mc.CompensationStages, key)
			}
			if ci.examCutoff > seen.cutoff { // stage cutoffs only grow
				reRecorded++
				first[key] = sighting{home: seen.home, cutoff: ci.examCutoff}
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if mc.CompensationStages < 20 {
		t.Fatalf("only %d stages after %d results; the test needs at least 20", mc.CompensationStages, len(got))
	}
	if reRecorded < 20 {
		t.Fatalf("only %d re-expansions observed over %d stages", reRecorded, mc.CompensationStages)
	}
	checkAgainstBrute(t, "AM-IDJ", got, l, r, len(got))

	// The root pair stays bookkept until the cutoff covers the whole
	// space: re-expanding it is a band re-expansion.
	root := it.c.rootPair()
	ci := it.compMap[keyOf(root)]
	if ci == nil {
		t.Fatal("the root pair is no longer bookkept; pick a smaller stage count")
	}
	home := block(ci.ranges)
	reexpand := func() {
		it.c.queue.Drain()
		if err := it.expand(root); err != nil {
			t.Fatal(err)
		}
	}
	reexpand() // size the queue for the root's children
	if avg := testing.AllocsPerRun(50, reexpand); avg != 0 {
		t.Errorf("a band re-expansion allocates %v, want 0", avg)
	}
	if it.compMap[keyOf(root)] != ci || block(ci.ranges) != home {
		t.Error("re-expansion replaced the root pair's bookkeeping")
	}
}
