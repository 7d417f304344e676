package join

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/sweep"
)

// BenchmarkLeafSweepSoA drives the struct-of-arrays leaf sweep through
// its batch-kernel fast path: WithinJoin runs every expansion with a
// fixed axis cutoff, so all leaf-pair refinement goes through
// MinDistSqBatch over the SoA columns rather than the scalar
// entry-at-a-time loop. A generous distance keeps most candidate pairs
// unpruned, making distance arithmetic — not tree traversal — the
// dominant cost, which is the regime the batch kernels exist for.
func BenchmarkLeafSweepSoA(b *testing.B) {
	rng := rand.New(rand.NewSource(811))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 2000, w, 10)
	r := datagen.Uniform(rng.Int63(), 1500, w, 10)
	left, right := buildTree(b, l, 16), buildTree(b, r, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := WithinJoin(left, right, 40, Options{}, func(Result) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("within join produced no pairs; benchmark is not exercising refinement")
		}
	}
}

// orderBenchTrees packs the two sides of the ordering benchmarks at the
// page-derived fanout (102 entries per 4 KB node, as the facade builds
// them) and returns each tree with the refs of its nodes: page IDs
// stamped with the level each page claims, as a parent's entry carries
// them.
func orderBenchTrees(b testing.TB) (left, right *rtree.Tree, lrefs, rrefs []uint64) {
	rng := rand.New(rand.NewSource(812))
	w := geom.NewRect(0, 0, 1000, 1000)
	pack := func(items []rtree.Item) (*rtree.Tree, []uint64) {
		bld, err := rtree.NewBuilderForPageSize(4096)
		if err != nil {
			b.Fatal(err)
		}
		bld.BulkLoad(items)
		t, err := bld.Pack(storage.NewMemStore(4096), 1<<24)
		if err != nil {
			b.Fatal(err)
		}
		var refs []uint64
		if err := t.Walk(func(id storage.PageID, n *rtree.NodeSoA) error {
			refs = append(refs, nodeRef(id, n.Level))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return t, refs
	}
	left, lrefs = pack(datagen.GaussianClusters(rng.Int63(), 12000, 8, w, 60, 8))
	right, rrefs = pack(datagen.Uniform(rng.Int63(), 12000, w, 10))
	return left, right, lrefs, rrefs
}

var benchPlans = [rtree.SweepSlots]sweep.Plan{
	{Axis: 0, Dir: sweep.Forward}, {Axis: 0, Dir: sweep.Backward},
	{Axis: 1, Dir: sweep.Forward}, {Axis: 1, Dir: sweep.Backward},
}

// BenchmarkSoASorter isolates the sweep-sort layer: one op is one
// sweep.SoASorter.Sort of one node from page order (so ns/op is ns per
// node), cycling through the nodes of a packed tree, per plan. The
// column copy that restores page order before each sort is inside the
// timed region; the copy sub-benchmark is that cost alone, to subtract.
func BenchmarkSoASorter(b *testing.B) {
	tree, _, refs, _ := orderBenchTrees(b)
	nodes := make([]rtree.NodeSoA, len(refs))
	for i, ref := range refs {
		if err := tree.ReadNodeSoA(refPage(ref), &nodes[i], nil); err != nil {
			b.Fatal(err)
		}
	}
	var scratch rtree.NodeSoA
	restore := func(src *rtree.NodeSoA) {
		scratch.Reset(src.Len())
		copy(scratch.MinX, src.MinX)
		copy(scratch.MinY, src.MinY)
		copy(scratch.MaxX, src.MaxX)
		copy(scratch.MaxY, src.MaxY)
		copy(scratch.Refs, src.Refs)
	}
	b.Run("copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			restore(&nodes[i%len(nodes)])
		}
	})
	var sorter sweep.SoASorter
	for _, p := range benchPlans {
		p := p
		b.Run(fmt.Sprintf("axis%d-%s", p.Axis, p.Dir), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				restore(&nodes[i%len(nodes)])
				sorter.Sort(&scratch, p)
			}
		})
	}
}

// BenchmarkExpansionOrder measures expansionWithPlan — page fetch,
// decode and ordering of both sides, the whole cost of establishing
// node order — for each thing the sweep-order memo can hold. One op is
// one node-pair expansion (two nodes: ns/node is half of ns/op). miss
// runs every expansion on a (node, plan) no query has ordered yet,
// reopening both trees — outside the timed region — once every slot has
// been filled: sort plus publish, 4 allocations per op (two published
// permutations). hit runs over a memo filled with permutations (pools
// that hold exactly the trees, so no room for decoded nodes): ordered
// decode, 0 allocations. resident runs over a memo filled with finished
// nodes (pools with room): two pool hits and two pointer loads, 0
// allocations.
func BenchmarkExpansionOrder(b *testing.B) {
	left, right, lrefs, rrefs := orderBenchTrees(b)
	n := min(len(lrefs), len(rrefs))
	var c *execContext
	reopen := func(spare int) {
		l, r := reopened(b, left, spare), reopened(b, right, spare)
		var err error
		if c, err = newContext(l, r, Options{}); err != nil {
			b.Fatal(err)
		}
		// Fault every page in, so all variants time pool hits.
		for i := 0; i < n; i++ {
			if err := l.ReadNodeSoA(refPage(lrefs[i]), &c.ex.soaL, nil); err != nil {
				b.Fatal(err)
			}
			if err := r.ReadNodeSoA(refPage(rrefs[i]), &c.ex.soaR, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	// step expands the i-th node pair of the cycle: every (node, plan)
	// combination of both sides exactly once per 4n steps. The refs carry
	// each page's own level, which the expansion checks against the page.
	step := func(i int) {
		p := hybridq.Pair{Left: lrefs[i%n], Right: rrefs[i%n]}
		if _, err := c.ex.expansionWithPlan(&p, benchPlans[i/n%len(benchPlans)], math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%(4*n) == 0 {
				b.StopTimer()
				reopen(0)
				b.StartTimer()
			}
			step(i)
		}
	})
	for _, filled := range []struct {
		name  string
		spare int
	}{{"hit", 0}, {"resident", 1 << 12}} {
		b.Run(filled.name, func(b *testing.B) {
			reopen(filled.spare)
			for i := 0; i < 4*n; i++ {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			if shared := c.ex.run.left.n != &c.ex.soaL; shared != (filled.spare > 0) {
				b.Fatalf("the run sweeps a shared node: %v", shared)
			}
		})
	}
	// emptied runs expansions over pairs whose occupancy grids prove that
	// the restriction empties a side (gridEmptied): two pool hits, two
	// header reads and the grid tests, no plan, no decode and no scan.
	// fresh is expansion, planned is expansionWithPlan (a compensation
	// stage's) under the same cutoff. The pairs are the leaf pairs within
	// the cutoff of each other, each with its nodes' bounds as its
	// rectangles, that the grids end. resident and permutations are the
	// two things the memo can hold for their nodes, which such an
	// expansion never reads.
	b.Run("emptied", func(b *testing.B) {
		const cut = 2.0
		for _, filled := range []struct {
			name  string
			spare int
		}{{"resident", 1 << 12}, {"permutations", 0}} {
			for _, path := range []struct {
				name   string
				expand func(p *hybridq.Pair, i int) (*sweepRun, error)
			}{
				{"fresh", func(p *hybridq.Pair, _ int) (*sweepRun, error) { return c.ex.expansion(p, cut, cut) }},
				{"planned", func(p *hybridq.Pair, i int) (*sweepRun, error) {
					return c.ex.expansionWithPlan(p, benchPlans[i%len(benchPlans)], cut)
				}},
			} {
				b.Run(filled.name+"/"+path.name, func(b *testing.B) {
					reopen(filled.spare)
					pairs := gridEmptiedPairs(b, c, lrefs, rrefs, cut)
					for i := range pairs {
						// The first expansion of a node publishes its grid.
						if _, err := c.ex.expansion(&pairs[i], cut, cut); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run, err := path.expand(&pairs[i%len(pairs)], i)
						if err != nil {
							b.Fatal(err)
						}
						if !run.emptied {
							b.Fatal("a pair the grids end was swept")
						}
					}
					b.ReportMetric(float64(len(pairs)), "pairs")
				})
			}
		}
	})
}

// gridEmptiedPairs returns the leaf pairs of lrefs × rrefs whose bounds
// lie within cut of each other and whose occupancy grids prove that the
// restriction under cut empties a side, with their bounds as the pair's
// rectangles.
func gridEmptiedPairs(b testing.TB, c *execContext, lrefs, rrefs []uint64, cut float64) []hybridq.Pair {
	type leaf struct {
		ref   uint64
		bound geom.Rect
		size  int
		grid  rtree.Occupancy
	}
	leaves := func(t *rtree.Tree, refs []uint64) []leaf {
		var out []leaf
		var n rtree.NodeSoA
		for _, ref := range refs {
			if refLevel(ref) != 0 {
				continue
			}
			if err := t.ReadNodeSoA(refPage(ref), &n, nil); err != nil {
				b.Fatal(err)
			}
			out = append(out, leaf{ref, soaBounds(&n), n.Len(), rtree.OccupancyOf(&n)})
		}
		return out
	}
	var pairs []hybridq.Pair
	for _, l := range leaves(c.left, lrefs) {
		for _, r := range leaves(c.right, rrefs) {
			if l.bound.MinDist(r.bound) > cut {
				continue
			}
			t, lDrop, rDrop := dropRule(l.bound, r.bound, cut)
			ls, rs := pairSide{size: l.size, grid: &l.grid}, pairSide{size: r.size, grid: &r.grid}
			if _, ok := gridEmptied(&ls, &rs, l.bound, r.bound, t, lDrop, rDrop); ok {
				pairs = append(pairs, hybridq.Pair{Left: l.ref, Right: r.ref, LeftRect: l.bound, RightRect: r.bound})
			}
		}
	}
	if len(pairs) == 0 {
		b.Fatal("the grids end no leaf pair; the benchmark times nothing")
	}
	return pairs
}

// soaBounds is the MBR of a decoded node's entries.
func soaBounds(s *rtree.NodeSoA) geom.Rect {
	b := s.Rect(0)
	for i := 1; i < s.Len(); i++ {
		b = b.Union(s.Rect(i))
	}
	return b
}

// BenchmarkAggressiveSweep isolates the sweep layer: one op is one
// recorded fixed-cutoff sweep — the shape of an AM-KDJ aggressive or
// AM-IDJ stage expansion — of two packed leaves that lie on top of each
// other (86 entries each: fanout 102 at the packer's fill), already
// decoded, ordered and restricted (BenchmarkExpansionOrder times the
// expansion), with warm scratch. The emit keeps each delivered pair with one
// 104-byte copy, as the main queue's heap does, and nothing else, so the
// queue (BenchmarkHeapPushPop, BenchmarkHybridQueuePushPop) stays out of
// the number. ns/anchor divides by the entries the sweep reads;
// realdist/op and pairs/op say how much of the op is distance kernel
// and how much is delivery.
func BenchmarkAggressiveSweep(b *testing.B) {
	left, right, lrefs, rrefs := orderBenchTrees(b)
	c, err := newContext(left, right, Options{})
	if err != nil {
		b.Fatal(err)
	}
	// packedLeaf returns the fullest leaf whose centre is nearest to
	// near's, or the first fullest leaf when near is nil.
	packedLeaf := func(t *rtree.Tree, refs []uint64, near *geom.Rect) (best storage.PageID, bestRect geom.Rect) {
		bestLen, bestDist := 0, 0.0
		var n rtree.NodeSoA
		for _, ref := range refs {
			id := refPage(ref)
			if err := t.ReadNodeSoA(id, &n, nil); err != nil {
				b.Fatal(err)
			}
			if !n.IsLeaf() || n.Len() < bestLen {
				continue
			}
			r, d := soaBounds(&n), 0.0
			if near != nil {
				d = near.CenterDist(r)
			}
			if n.Len() > bestLen || d < bestDist {
				best, bestRect, bestLen, bestDist = id, r, n.Len(), d
			}
		}
		return best, bestRect
	}
	rid, rRect := packedLeaf(right, rrefs, nil)
	lid, lRect := packedLeaf(left, lrefs, &rRect)
	p := hybridq.Pair{Dist: lRect.MinDist(rRect), Left: nodeRef(lid, 0), Right: nodeRef(rid, 0), LeftRect: lRect, RightRect: rRect}

	const eDmax = 4.0
	run, err := c.ex.expansion(&p, eDmax, eDmax)
	if err != nil {
		b.Fatal(err)
	}
	var kept hybridq.Pair
	run.fixCutoff(eDmax)
	run.emit = func(np *hybridq.Pair) bool {
		kept = *np
		return true
	}
	var mc metrics.Collector
	c.ex.mc = &mc
	run.run() // size the distance scratch
	if run.children == 0 {
		b.Fatal("the sweep delivered nothing; the benchmark exercises no emit")
	}
	mc, run.children = metrics.Collector{}, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.run()
	}
	b.StopTimer()
	anchors := float64(run.left.n.Len() + run.right.n.Len())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/anchors, "ns/anchor")
	b.ReportMetric(float64(mc.RealDistCalcs)/float64(b.N), "realdist/op")
	b.ReportMetric(float64(run.children)/float64(b.N), "pairs/op")
	_ = kept
}
