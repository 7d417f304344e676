package join

import (
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/datagen"
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

// checkCompStages makes it, an AM-IDJ iterator reporting to mc, check
// its compensation list at every re-seed. A bookkept pair's entry is
// appended by its first expansion and every later stage updates it in
// place, so the list follows the live entries and not the number of
// stages run: before each re-seed it holds the entries of the last
// re-seed plus those bookkept since, and after it only live entries,
// each indexed at its position and not yet examined under a cutoff that
// covers its pair. It returns how many retired entries the re-seeds
// dropped.
func checkCompStages(t *testing.T, it *Iterator, mc *metrics.Collector) *int {
	seeded, inserts, dropped := 0, int64(0), new(int)
	advance := it.drained
	it.drained = func() bool {
		stage := mc.CompensationStages
		if l := it.c.comp; l != nil {
			if got, want := len(l.infos), seeded+int(mc.CompQueueInserts-inserts); got != want {
				t.Fatalf("stage %d ends with %d compensation entries, want the %d of its re-seed plus %d bookkept since",
					stage, got, seeded, mc.CompQueueInserts-inserts)
			}
			for i := range l.infos {
				if l.infos[i].retired {
					*dropped++
				}
			}
		}
		more := advance()
		if !more {
			return false
		}
		l := it.c.comp
		for i := range l.infos {
			ci := &l.infos[i]
			if ci.retired || ci.examCutoff >= ci.pair.LeftRect.MaxDist(ci.pair.RightRect) {
				t.Fatalf("stage %d re-seeded entry %d, %+v, which has nothing left to examine", stage+1, i, *ci)
			}
			if at, ok := l.at[keyOf(&ci.pair)]; !ok || int(at) != i {
				t.Fatalf("stage %d indexes entry %d at %d (%v)", stage+1, i, at, ok)
			}
		}
		if len(l.at) != len(l.infos) {
			t.Fatalf("stage %d indexes %d entries of %d", stage+1, len(l.at), len(l.infos))
		}
		seeded, inserts = len(l.infos), mc.CompQueueInserts
		return true
	}
	return dropped
}

// TestAMIDJBandReExpansionAllocs pulls results through at least twenty
// stages of one iterator, through at least twenty band re-expansions,
// checking the compensation list at every re-seed (checkCompStages).
// Results still equal brute force. Then a band re-expansion of every
// pair still bookkept, warm, allocates nothing at all.
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
		if it.c.bookkept(p) != nil {
			reExpansions++
		}
		return expand(p)
	}
	checkCompStages(t, it, &mc)
	var got []Result
	for mc.CompensationStages < 20 && len(got) < 20000 {
		res, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, res)
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
	for _, ci := range it.c.comp.infos {
		if it.c.bookkept(&ci.pair) != nil {
			live = append(live, ci.pair)
		}
	}
	if root := it.c.rootPair(); it.c.bookkept(&root) == nil {
		t.Fatal("the root pair is no longer bookkept; pick a smaller stage count")
	}
	reexpand := func() {
		it.c.queue.Drain()
		for i := range live {
			p := &live[i]
			if it.c.bookkept(p) == nil {
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

// TestAMIDJRetiresCoveredEntries drains an AM-IDJ join to the end
// through stages whose cutoffs come to cover bookkept pairs, checking
// the compensation list at every re-seed: each retired entry is dropped
// by the next one.
func TestAMIDJRetiresCoveredEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	w := geom.NewRect(0, 0, 1000, 1000)
	l, r := datagen.Uniform(rng.Int63(), 200, w, 10), datagen.Uniform(rng.Int63(), 150, w, 10)
	var mc metrics.Collector
	it, err := AMIDJ(buildTree(t, l, 8), buildTree(t, r, 8), Options{BatchK: 500, Metrics: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	dropped := checkCompStages(t, it, &mc)
	var got []Result
	for {
		res, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, res)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if *dropped == 0 {
		t.Fatalf("no re-seed over %d stages dropped a retired entry; the test checks too little", mc.CompensationStages)
	}
	checkAgainstBrute(t, "AM-IDJ", got, l, r, len(l)*len(r))
}

// TestAMIDJCompensationAllocs: once an AM-IDJ iterator's compensation
// list and index have served a stage, bookkeeping fresh expansions and
// re-seeding the list allocate nothing. Each entry is appended by value
// into the list's array and the re-seed refills the index in place, so
// neither a stage nor a bookkept pair costs an allocation.
func TestAMIDJCompensationAllocs(t *testing.T) {
	l, r := memoTestData()
	var mc metrics.Collector
	it, err := AMIDJ(buildTree(t, l, 16), buildTree(t, r, 16), Options{BatchK: 40, Metrics: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for mc.CompensationStages < 3 {
		if _, ok := it.Next(); !ok {
			t.Fatalf("the join ended after %d stages; the test needs three", mc.CompensationStages)
		}
	}
	// The node pairs waiting in the queue that no stage has expanded.
	c := it.c
	var fresh []hybridq.Pair
	for c.queue.Len() > 0 {
		p, _ := c.queue.Pop()
		if !p.IsResult() && c.bookkept(p) == nil {
			fresh = append(fresh, *p)
		}
	}
	list := c.comp
	kept := append([]compInfo(nil), list.infos...)
	inserts := mc.CompQueueInserts
	stage := func() {
		c.queue.Drain()
		list.infos = append(list.infos[:0], kept...)
		c.compensate(it.eDmax)
		for i := range fresh {
			if err := it.expand(&fresh[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	stage() // size the list, its index, the queue and the scratch
	bookkept := mc.CompQueueInserts - inserts
	if bookkept == 0 || len(list.at) == 0 {
		t.Fatalf("%d fresh expansions bookkept %d pairs over a re-seed of %d; the pin exercises too little",
			len(fresh), bookkept, len(list.at))
	}
	if avg := testing.AllocsPerRun(50, stage); avg != 0 {
		t.Errorf("re-seeding %d entries and bookkeeping %d fresh expansions allocates %v, want 0",
			len(kept), bookkept, avg)
	}
}
