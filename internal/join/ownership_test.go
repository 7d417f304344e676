package join

import (
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
)

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
	ct := newCutoffTracker(c, 50, c.opts.Ablation.AllPairs)
	root := c.rootPair()
	run, err := c.ex.expansion(&root, 400, 400)
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
		if *got != w {
			t.Fatalf("pair %d popped as\n %+v, pushed as\n %+v", i, *got, w)
		}
	}
	if _, ok := c.queue.Pop(); ok {
		t.Error("queue holds more pairs than emit pushed")
	}
}

// TestAMIDJBandReExpansionAllocs pulls results through at least twenty
// stages of one iterator, through at least twenty band re-expansions.
// A bookkept pair's compInfo is allocated by its first expansion and
// every later stage updates it in place (its address never changes
// while the pair is live), so the iterator's bookkeeping follows its
// live compMap and not the number of stages it has run. Results still
// equal brute force. Then a band re-expansion of every pair still
// bookkept, warm, allocates nothing at all.
func TestAMIDJBandReExpansionAllocs(t *testing.T) {
	l, r := memoTestData()
	var mc metrics.Collector
	it, err := AMIDJ(buildTree(t, l, 16), buildTree(t, r, 16), Options{BatchK: 40, Metrics: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	reExpansions := 0
	expand := it.node
	it.node = func(p *hybridq.Pair) error {
		if it.compMap[keyOf(p)] != nil {
			reExpansions++
		}
		return expand(p)
	}
	home := map[pairKey]*compInfo{}
	var got []Result
	for mc.CompensationStages < 20 && len(got) < 20000 {
		res, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, res)
		for key, ci := range it.compMap {
			if h, ok := home[key]; !ok {
				home[key] = ci
			} else if h != ci {
				t.Fatalf("after %d results (stage %d): pair %v keeps its bookkeeping in a new compInfo", len(got), mc.CompensationStages, key)
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if mc.CompensationStages < 20 {
		t.Fatalf("only %d stages after %d results; the test needs at least 20", mc.CompensationStages, len(got))
	}
	if reExpansions < 20 {
		t.Fatalf("only %d band re-expansions over %d stages", reExpansions, mc.CompensationStages)
	}
	checkAgainstBrute(t, "AM-IDJ", got, l, r, len(got))

	// The root pair stays bookkept until the cutoff covers the whole
	// space, so at least it is left to re-expand.
	var live []hybridq.Pair
	for _, key := range it.compOrder {
		if ci := it.compMap[key]; ci != nil {
			live = append(live, ci.pair)
		}
	}
	if root := it.c.rootPair(); it.compMap[keyOf(&root)] == nil {
		t.Fatal("the root pair is no longer bookkept; pick a smaller stage count")
	}
	reexpand := func() {
		it.c.queue.Drain()
		for i := range live {
			p := &live[i]
			if it.compMap[keyOf(p)] == nil {
				continue // retired by the call before: fully covered
			}
			if err := it.expand(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	reexpand() // size the queue for the children
	if avg := testing.AllocsPerRun(50, reexpand); avg != 0 {
		t.Errorf("band re-expansions of %d bookkept pairs allocate %v, want 0", len(live), avg)
	}
}
