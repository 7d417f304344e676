package main

import (
	"fmt"
	"math/rand"
	"time"

	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/pqueue"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/sweep"
)

// Layer probes time one layer's public entry point in isolation, on
// nodes and distances drawn from the workload's own trees. Multiplied
// by how often the engine calls that layer per op, a probe estimates
// the layer's share of an op; what the estimates leave over is
// join.unattributed_share.

type probeResult struct {
	poolHitNS, poolMissNS    float64 // BufferPool.Get
	decodeNS                 float64 // Tree.ReadNodeSoA beyond the pool hit
	sortNS                   float64 // SoASorter.Sort per node
	kernelNS                 float64 // MinDistSqBatch per rectangle
	queueMemNS, queueSpillNS float64 // hybridq Push+Pop per pair
	kthInsertNS              float64 // DistanceQueue.Insert
}

// probeBatches is how many batches a probe times; it reports the
// median batch, so a batch that caught a collection or an interrupt
// does not count.
const probeBatches = 9

// timeBatches runs batch probeBatches times and returns the median
// time per unit of work in nanoseconds, divided by the host-speed
// factor. batch returns how many units it did.
func timeBatches(probe *hostProbe, batch func() (int, error)) (float64, error) {
	per := make([]float64, 0, probeBatches)
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		n, err := batch()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/float64(max(n, 1)))
	}
	probe.sampleN(probeWindow)
	return median(per) / probe.factor(), nil
}

// nodePages lists the page IDs of a tree's nodes.
func nodePages(t *rtree.Tree) ([]storage.PageID, error) {
	var ids []storage.PageID
	err := t.Walk(func(id storage.PageID, _ *rtree.Node) error {
		ids = append(ids, id)
		return nil
	})
	return ids, err
}

func runProbes(cfg config, e *tracedEnv, probe *hostProbe) (probeResult, error) {
	var r probeResult
	rng := rand.New(rand.NewSource(cfg.seed))
	store := e.left.Pool().Store()
	pages, err := nodePages(e.left)
	if err != nil {
		return r, err
	}
	if len(pages) < 16 {
		return r, fmt.Errorf("tree has only %d nodes", len(pages))
	}
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })

	// Buffer pool: every page resident, then a pool too small to keep
	// any page until its next turn.
	warm := storage.NewBufferPool(store, (len(pages)+8)*pageSize)
	get := func(p *storage.BufferPool) func() (int, error) {
		return func() (int, error) {
			for _, id := range pages {
				if _, _, err := p.Get(id); err != nil {
					return 0, err
				}
			}
			return len(pages), nil
		}
	}
	if _, err := get(warm)(); err != nil {
		return r, err
	}
	if r.poolHitNS, err = timeBatches(probe, get(warm)); err != nil {
		return r, err
	}
	if r.poolMissNS, err = timeBatches(probe, get(storage.NewBufferPool(store, 4*pageSize))); err != nil {
		return r, err
	}

	// Node decode and sweep sort, on a view of the same store with
	// every page resident, so the read is a pool hit plus the decode.
	view, err := rtree.Open(store, (len(pages)+8)*pageSize)
	if err != nil {
		return r, err
	}
	var soa rtree.NodeSoA
	read := func() (int, error) {
		for _, id := range pages {
			if err := view.ReadNodeSoA(id, &soa, nil); err != nil {
				return 0, err
			}
		}
		return len(pages), nil
	}
	if _, err := read(); err != nil {
		return r, err
	}
	readNS, err := timeBatches(probe, read)
	if err != nil {
		return r, err
	}
	if d := readNS - r.poolHitNS; d > 0 {
		r.decodeNS = d
	}
	var sorter sweep.SoASorter
	dirs := [2]sweep.Direction{sweep.Forward, sweep.Backward}
	readSortNS, err := timeBatches(probe, func() (int, error) {
		for i, id := range pages {
			if err := view.ReadNodeSoA(id, &soa, nil); err != nil {
				return 0, err
			}
			// Each read restores the stored order, so every sort starts
			// from unsorted input as it does in the engine.
			sorter.Sort(&soa, sweep.Plan{Axis: i & 1, Dir: dirs[i>>1&1]})
		}
		return len(pages), nil
	})
	if err != nil {
		return r, err
	}
	if d := readSortNS - readNS; d > 0 {
		r.sortNS = d
	}

	// Distance kernel: one rectangle of the left tree against each node
	// of the right one.
	rview, err := rtree.Open(e.right.Pool().Store(), e.right.NumNodes()*pageSize+8*pageSize)
	if err != nil {
		return r, err
	}
	rpages, err := nodePages(e.right)
	if err != nil {
		return r, err
	}
	var nodes []rtree.NodeSoA
	for _, id := range rpages {
		var n rtree.NodeSoA
		if err := rview.ReadNodeSoA(id, &n, nil); err != nil {
			return r, err
		}
		nodes = append(nodes, n)
	}
	if err := view.ReadNodeSoA(pages[0], &soa, nil); err != nil {
		return r, err
	}
	dst := make([]float64, 1024)
	// This batch and the distance-queue one below return no error.
	r.kernelNS, _ = timeBatches(probe, func() (int, error) {
		rects := 0
		for i := range nodes {
			n := &nodes[i]
			geom.MinDistSqBatch(dst[:n.Len()], soa.Rect(i%soa.Len()), n.MinX, n.MinY, n.MaxX, n.MaxY)
			rects += n.Len()
		}
		return rects, nil
	})

	// Queue pairs with the distances the workload's nodes have from each
	// other.
	pairs := make([]hybridq.Pair, 20000)
	for i := range pairs {
		a, b := &nodes[rng.Intn(len(nodes))], &nodes[rng.Intn(len(nodes))]
		ra, rb := a.Rect(rng.Intn(a.Len())), b.Rect(rng.Intn(b.Len()))
		pairs[i] = hybridq.Pair{Dist: ra.MinDist(rb), Left: uint64(i), Right: uint64(i), LeftRect: ra, RightRect: rb}
	}
	// In memory: room for every pair and no model boundary, so nothing
	// spills. Across spill and reload: the bigk-spill budget with the
	// model's boundaries, as the engine configures its queue.
	cycle := func(memBytes int, rho float64) func() (int, error) {
		return func() (int, error) {
			q := hybridq.New(hybridq.Config{MemBytes: memBytes, Rho: rho})
			for _, p := range pairs {
				q.Push(p)
			}
			for {
				if _, ok := q.Pop(); !ok {
					break
				}
			}
			return len(pairs), q.Err()
		}
	}
	if r.queueMemNS, err = timeBatches(probe, cycle(len(pairs)*2*hybridq.RecordSize, 0)); err != nil {
		return r, err
	}
	if r.queueSpillNS, err = timeBatches(probe, cycle(64<<10, e.model.Rho())); err != nil {
		return r, err
	}

	r.kthInsertNS, _ = timeBatches(probe, func() (int, error) {
		q := pqueue.NewDistanceQueue(e.w.K)
		for _, p := range pairs {
			q.Insert(p.Dist)
		}
		return len(pairs), nil
	})
	return r, nil
}
