package join

import (
	"fmt"
	"testing"
	"time"

	"distjoin/internal/geom"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
)

// overlappingGrids returns two n x n grids of 1.5-wide cells at unit
// pitch, the second shifted by a quarter cell: every cell overlaps its
// neighbours in both sets, so thousands of object pairs — and every
// node pair above them — are at distance exactly zero.
func overlappingGrids(n int) (l, r []rtree.Item) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i), float64(j)
			id := int64(i*n + j)
			l = append(l, rtree.Item{Rect: geom.NewRect(x, y, x+1.5, y+1.5), Obj: id})
			r = append(r, rtree.Item{Rect: geom.NewRect(x+0.25, y+0.25, x+1.75, y+1.75), Obj: id})
		}
	}
	return l, r
}

// TestZeroDistanceTieRunTinyQueue pins the main-queue path on the data
// that used to make it quadratic: every queued pair ties at distance
// zero while the queue holds nine pairs in memory, so the heap is an
// unsplittable tie run for the whole query (k=1500), or until the zero
// pairs run out and the spilled segments are swapped back in (k=4000).
// Results must equal brute force, and the complete counter set must
// equal the values recorded before the tie-run guard, the
// pointer-ordered heap and the sweep-side distance filter went in: they
// change what the work costs, never the work. Work that moved on
// purpose was re-recorded: the distance counters when the sweep
// restriction landed, and the counters the sweep plan steers when the
// plan came to be chosen from the region the restriction keeps.
func TestZeroDistanceTieRunTinyQueue(t *testing.T) {
	l, r := overlappingGrids(20)
	idj := func(left, right *rtree.Tree, k int, o Options) ([]Result, error) {
		o.BatchK = 400
		it, err := AMIDJ(left, right, o)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		var out []Result
		for len(out) < k {
			res, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, res)
		}
		return out, it.Err()
	}
	// An eDmax below every nonzero distance: the aggressive stage ends
	// with the zero pairs and a compensation stage produces the rest.
	underestimated := func(left, right *rtree.Tree, k int, o Options) ([]Result, error) {
		o.EDmax = 1e-12
		return AMKDJ(left, right, k, o)
	}
	for _, q := range []struct {
		name string
		k    int
		run  func(left, right *rtree.Tree, k int, o Options) ([]Result, error)
		mode string
		want metrics.Collector
	}{
		{name: "AM-KDJ", k: 1500, run: AMKDJ, mode: "initial", want: metrics.Collector{
			RealDistCalcs: 6587, AxisDistCalcs: 12901, MainQueueInserts: 5839, DistQueueInserts: 5233, CompQueueInserts: 537,
			NodeAccessesLogical: 1104, NodeAccessesPhysical: 164, QueuePageWrites: 44, MainQueuePeak: 5287, ResultsProduced: 1500,
			BufferHits: 940, BufferMisses: 164, ModeledIOTime: 1315625 * time.Microsecond}},
		{name: "B-KDJ", k: 1500, run: BKDJ, want: metrics.Collector{
			RealDistCalcs: 7759, AxisDistCalcs: 14051, MainQueueInserts: 6934, DistQueueInserts: 6222,
			NodeAccessesLogical: 1104, NodeAccessesPhysical: 164, QueuePageWrites: 70, MainQueuePeak: 6382, ResultsProduced: 1500,
			BufferHits: 940, BufferMisses: 164, ModeledIOTime: 13359375 * 100 * time.Nanosecond}},
		{name: "AM-IDJ", k: 1500, run: idj, mode: "initial", want: metrics.Collector{
			RealDistCalcs: 7444, AxisDistCalcs: 13763, MainQueueInserts: 6296, CompQueueInserts: 552,
			NodeAccessesLogical: 1104, NodeAccessesPhysical: 164, QueuePageWrites: 55, MainQueuePeak: 5744, ResultsProduced: 1500,
			BufferHits: 940, BufferMisses: 164, ModeledIOTime: 132421875 * 10 * time.Nanosecond}},
		{name: "AM-KDJ", k: 4000, run: AMKDJ, mode: "initial", want: metrics.Collector{
			RealDistCalcs: 11972, AxisDistCalcs: 17540, MainQueueInserts: 10477, DistQueueInserts: 9668, CompQueueInserts: 594,
			NodeAccessesLogical: 1212, NodeAccessesPhysical: 164, QueuePageReads: 49, QueuePageWrites: 154, MainQueuePeak: 9876, ResultsProduced: 4000,
			BufferHits: 1048, BufferMisses: 164, ModeledIOTime: 143984375 * 10 * time.Nanosecond}},
		{name: "AM-KDJ/underestimated", k: 4000, run: underestimated, mode: "override", want: metrics.Collector{
			RealDistCalcs: 7946, AxisDistCalcs: 18565, MainQueueInserts: 7747, DistQueueInserts: 6456, CompQueueInserts: 552,
			NodeAccessesLogical: 2316, NodeAccessesPhysical: 164, QueuePageReads: 59, QueuePageWrites: 85, MainQueuePeak: 4591, ResultsProduced: 4000,
			CompensationStages: 1, BufferHits: 2152, BufferMisses: 164, ModeledIOTime: 1393750 * time.Microsecond}},
		{name: "AM-IDJ", k: 4000, run: idj, mode: "initial", want: metrics.Collector{
			RealDistCalcs: 7530, AxisDistCalcs: 14522, MainQueueInserts: 6382, CompQueueInserts: 606,
			NodeAccessesLogical: 1212, NodeAccessesPhysical: 164, QueuePageReads: 49, QueuePageWrites: 56, MainQueuePeak: 5744, ResultsProduced: 4000,
			BufferHits: 1048, BufferMisses: 164, ModeledIOTime: 136328125 * 10 * time.Nanosecond}},
	} {
		name := fmt.Sprintf("%s k=%d", q.name, q.k)
		var mc metrics.Collector
		got, err := q.run(buildTree(t, l, 8), buildTree(t, r, 8), q.k, Options{QueueMemBytes: 1024, Metrics: &mc})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstBrute(t, name, got, l, r, q.k)
		if zero := got[q.k-1].Dist == 0; zero != (q.k == 1500) {
			t.Fatalf("%s: last result at distance %g; the data no longer ties at zero as intended", name, got[q.k-1].Dist)
		}
		if mc.QueuePageWrites == 0 || (q.k == 4000 && mc.QueuePageReads == 0) {
			t.Fatalf("%s: a nine-pair queue wrote %d and read %d pages", name, mc.QueuePageWrites, mc.QueuePageReads)
		}
		var counters metrics.Collector
		counters.Add(&mc)
		counters.WallTime = 0
		q.want.SetEstimateMode(q.mode)
		if counters != q.want {
			t.Errorf("%s: counters moved:\n got  %+v\n want %+v", name, counters, q.want)
		}
	}
}

// TestSweepStageAllocs pins what one serial expansion allocates once
// the scratch is warm, by who owns what. The sweep owns nothing that
// outlives it: the candidate pair is its scratch, the emit is the
// tracker's push bound once per query, the delivered count is a field.
// The aggressive stage's bookkeeping is the compInfo it returns by
// value, which the caller appends to the query's pooled list, so neither
// an aggressive expansion nor B-KDJ's allocates anything.
func TestSweepStageAllocs(t *testing.T) {
	l, r := memoTestData()
	c, err := newContext(buildTree(t, l, 64), buildTree(t, r, 64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ct := newCutoffTracker(c, 50, c.opts.Ablation.AllPairs)
	root := c.rootPair()
	aggressive := func() {
		c.queue.Drain()
		if _, err := c.amAggressiveSweep(&root, 400, ct, ct.cutoffFn); err != nil {
			t.Fatal(err)
		}
	}
	dynamic := func() {
		c.queue.Drain()
		if err := c.bkdjPlaneSweep(&root, ct); err != nil {
			t.Fatal(err)
		}
	}
	aggressive() // size the scratch, the heap and the distance queue
	if c.queue.Len() == 0 {
		t.Fatal("the aggressive sweep queued nothing; the pin exercises no emit")
	}
	if avg := testing.AllocsPerRun(200, aggressive); avg != 0 {
		t.Errorf("aggressive expansion allocates %v, want 0", avg)
	}
	dynamic()
	if avg := testing.AllocsPerRun(200, dynamic); avg != 0 {
		t.Errorf("B-KDJ expansion allocates %v, want 0", avg)
	}
}
