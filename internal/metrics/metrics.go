// Package metrics collects the performance counters used by the
// paper's evaluation (§5.1): number of distance computations, number of
// queue insertions, and the I/O activity from which response time is
// derived. A Collector is threaded through the join algorithms and the
// storage layer so a single query run yields one consistent snapshot.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// The simulated time charged per page I/O, after the testbed of the
// paper's §5.1: a disk delivering about 0.5 MB/s for random accesses
// and 5 MB/s for sequential accesses, with 4 KB pages. Tree node reads
// are charged the random cost; queue spills, reloads and sort runs the
// sequential one.
const (
	modelPageBytes     = 4096
	RandomPageCost     = time.Second * modelPageBytes / (512 * 1024)
	SequentialPageCost = time.Second * modelPageBytes / (5 * 1024 * 1024)
)

// Collector accumulates the counters for one query execution. The zero
// value is ready to use. A nil *Collector is also safe: every method
// becomes a no-op, so library code can thread an optional collector
// without nil checks at each call site.
//
// A Collector is not safe for concurrent mutation. Each query runs on
// one goroutine with a collector of its own, so the plain int64 fields
// never race.
type Collector struct {
	// RealDistCalcs counts real (Euclidean MBR) distance computations.
	RealDistCalcs int64
	// AxisDistCalcs counts cheap one-dimensional axis distance
	// computations performed during plane sweeping. Each entry the
	// restriction of an expansion tests against the other node's
	// rectangle, before the sweep proper, counts as one. A later stage
	// that re-derives the prefix of a bookkept pair an earlier stage
	// examined (AM-KDJ's compensation, AM-IDJ's band re-expansion)
	// repeats gap comparisons that stage already counted; they are not
	// counted again.
	AxisDistCalcs int64
	// RefinementCalcs counts exact-geometry distance refinements
	// (join.Options.Refiner invocations).
	RefinementCalcs int64
	// MainQueueInserts counts insertions into the main queue.
	MainQueueInserts int64
	// DistQueueInserts counts insertions into the distance queue.
	DistQueueInserts int64
	// CompQueueInserts counts entries appended to the compensation
	// list: the pairs the adaptive joins bookkeep.
	CompQueueInserts int64
	// NodeAccessesLogical counts R-tree node reads including buffer
	// hits (the parenthesized "no buffer" numbers of Table 2 count
	// these, since every logical access would be physical then).
	NodeAccessesLogical int64
	// NodeAccessesPhysical counts R-tree node reads that missed the
	// buffer pool and went to the page store.
	NodeAccessesPhysical int64
	// QueuePageReads / QueuePageWrites count hybrid-queue segment I/O.
	QueuePageReads  int64
	QueuePageWrites int64
	// SortPageReads / SortPageWrites count external-sort run I/O
	// (SJ-SORT only).
	SortPageReads  int64
	SortPageWrites int64
	// MainQueuePeak is the largest observed main-queue population
	// (memory + disk), the quantity behind §4.4's sizing discussion.
	MainQueuePeak int64
	// ResultsProduced counts object pairs reported to the caller.
	ResultsProduced int64
	// CompensationStages counts how many compensation stages ran
	// (AM-KDJ: 0 or 1; AM-IDJ: any number).
	CompensationStages int64

	// BufferHits / BufferMisses count R-tree buffer pool page
	// accesses attributed to this query (hits served from a frame,
	// misses read through to the store). Their ratio is the pool
	// hit-ratio gauge of the Prometheus export.
	BufferHits   int64
	BufferMisses int64
	// BufferEvictions counts frames the query's misses pushed out of
	// the pool (LRU victims, whether or not dirty).
	BufferEvictions int64

	// ModeledIOTime is simulated time charged (RandomPageCost,
	// SequentialPageCost) for
	// every physical page access.
	ModeledIOTime time.Duration
	// WallTime is the measured wall-clock time, set by Finish.
	WallTime time.Duration

	// lastEstimateMode is the most recent eDmax correction mode the
	// adaptive engine applied ("initial", "arithmetic", "geometric",
	// "override"); empty until the first estimate. Unexported on
	// purpose: the reflection exporters require every exported field
	// to be int64-kind, and the serving telemetry reads it through
	// EstimateMode instead.
	lastEstimateMode string

	start time.Time
}

// Start records the wall-clock start of a run.
func (c *Collector) Start() {
	if c == nil {
		return
	}
	c.start = time.Now()
}

// Finish records the wall-clock end of a run.
func (c *Collector) Finish() {
	if c == nil {
		return
	}
	if !c.start.IsZero() {
		c.WallTime = time.Since(c.start)
	}
}

// Reset zeroes all counters.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	*c = Collector{}
}

// AddRealDist records n real-distance computations.
func (c *Collector) AddRealDist(n int64) {
	if c != nil {
		c.RealDistCalcs += n
	}
}

// AddAxisDist records n axis-distance computations.
func (c *Collector) AddAxisDist(n int64) {
	if c != nil {
		c.AxisDistCalcs += n
	}
}

// AddRefinement records n exact-geometry refinement computations.
func (c *Collector) AddRefinement(n int64) {
	if c != nil {
		c.RefinementCalcs += n
	}
}

// AddMainQueueInsert records n main-queue insertions.
func (c *Collector) AddMainQueueInsert(n int64) {
	if c != nil {
		c.MainQueueInserts += n
	}
}

// AddDistQueueInsert records n distance-queue insertions.
func (c *Collector) AddDistQueueInsert(n int64) {
	if c != nil {
		c.DistQueueInserts += n
	}
}

// AddCompQueueInsert records n compensation-queue insertions.
func (c *Collector) AddCompQueueInsert(n int64) {
	if c != nil {
		c.CompQueueInserts += n
	}
}

// NodeAccess records one logical node access; physical reports whether
// it missed the buffer pool. The charged I/O time uses cost.
func (c *Collector) NodeAccess(physical bool, cost time.Duration) {
	if c == nil {
		return
	}
	c.NodeAccessesLogical++
	if physical {
		c.NodeAccessesPhysical++
		c.ModeledIOTime += cost
	}
}

// BufferAccess records one buffer pool access — a hit or a miss —
// together with the number of frames the access evicted (always zero
// for hits).
func (c *Collector) BufferAccess(hit bool, evictions int64) {
	if c == nil {
		return
	}
	if hit {
		c.BufferHits++
		return
	}
	c.BufferMisses++
	c.BufferEvictions += evictions
}

// BufferHitRatio returns hits / (hits + misses), or 0 before any
// access — the hit-ratio gauge of the Prometheus export.
func (c *Collector) BufferHitRatio() float64 {
	if c == nil || c.BufferHits+c.BufferMisses == 0 {
		return 0
	}
	return float64(c.BufferHits) / float64(c.BufferHits+c.BufferMisses)
}

// QueueIO records hybrid-queue page traffic with charged time.
func (c *Collector) QueueIO(reads, writes int64, cost time.Duration) {
	if c == nil {
		return
	}
	c.QueuePageReads += reads
	c.QueuePageWrites += writes
	c.ModeledIOTime += time.Duration(reads+writes) * cost
}

// SortIO records external-sort page traffic with charged time.
func (c *Collector) SortIO(reads, writes int64, cost time.Duration) {
	if c == nil {
		return
	}
	c.SortPageReads += reads
	c.SortPageWrites += writes
	c.ModeledIOTime += time.Duration(reads+writes) * cost
}

// ObserveQueueLen updates the main-queue high-water mark.
func (c *Collector) ObserveQueueLen(n int) {
	if c != nil && int64(n) > c.MainQueuePeak {
		c.MainQueuePeak = int64(n)
	}
}

// AddResult records n produced result pairs.
func (c *Collector) AddResult(n int64) {
	if c != nil {
		c.ResultsProduced += n
	}
}

// SetEstimateMode records the eDmax correction mode of the latest
// re-estimation. The argument is always one of the engine's constant
// mode strings, so recording allocates nothing.
func (c *Collector) SetEstimateMode(mode string) {
	if c != nil {
		c.lastEstimateMode = mode
	}
}

// EstimateMode returns the most recent eDmax correction mode, or ""
// when the query never re-estimated (nil-safe).
func (c *Collector) EstimateMode() string {
	if c == nil {
		return ""
	}
	return c.lastEstimateMode
}

// AddCompensationStage records that a compensation stage began.
func (c *Collector) AddCompensationStage() {
	if c != nil {
		c.CompensationStages++
	}
}

// DistCalcs returns the total number of distance computations (axis
// plus real), the quantity plotted in Figures 10(a), 12(a), and 14(a).
func (c *Collector) DistCalcs() int64 {
	if c == nil {
		return 0
	}
	return c.RealDistCalcs + c.AxisDistCalcs
}

// QueueInserts returns total insertions across all queues, the
// quantity plotted in Figures 10(b), 12(b), and 14(b).
func (c *Collector) QueueInserts() int64 {
	if c == nil {
		return 0
	}
	return c.MainQueueInserts + c.DistQueueInserts + c.CompQueueInserts
}

// ResponseTime returns the modeled response time: wall-clock CPU time
// plus charged I/O time. On modern hardware the wall clock alone
// under-represents the I/O regime of the paper's 1999 testbed; the sum
// restores comparable proportions.
func (c *Collector) ResponseTime() time.Duration {
	if c == nil {
		return 0
	}
	return c.WallTime + c.ModeledIOTime
}

// Add accumulates o into c (used for cumulative stepwise runs, Fig 15).
func (c *Collector) Add(o *Collector) {
	if c == nil || o == nil {
		return
	}
	c.RealDistCalcs += o.RealDistCalcs
	c.AxisDistCalcs += o.AxisDistCalcs
	c.RefinementCalcs += o.RefinementCalcs
	c.MainQueueInserts += o.MainQueueInserts
	c.DistQueueInserts += o.DistQueueInserts
	c.CompQueueInserts += o.CompQueueInserts
	c.NodeAccessesLogical += o.NodeAccessesLogical
	c.NodeAccessesPhysical += o.NodeAccessesPhysical
	c.QueuePageReads += o.QueuePageReads
	c.QueuePageWrites += o.QueuePageWrites
	c.SortPageReads += o.SortPageReads
	c.SortPageWrites += o.SortPageWrites
	if o.MainQueuePeak > c.MainQueuePeak {
		c.MainQueuePeak = o.MainQueuePeak
	}
	c.ResultsProduced += o.ResultsProduced
	c.CompensationStages += o.CompensationStages
	c.BufferHits += o.BufferHits
	c.BufferMisses += o.BufferMisses
	c.BufferEvictions += o.BufferEvictions
	c.ModeledIOTime += o.ModeledIOTime
	c.WallTime += o.WallTime
	if o.lastEstimateMode != "" {
		c.lastEstimateMode = o.lastEstimateMode
	}
}

// String renders a one-line summary, convenient for logs.
func (c *Collector) String() string {
	if c == nil {
		return "<nil metrics>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dist=%d (axis=%d real=%d) qins=%d nodes=%d/%d io=%v wall=%v",
		c.DistCalcs(), c.AxisDistCalcs, c.RealDistCalcs,
		c.QueueInserts(), c.NodeAccessesPhysical, c.NodeAccessesLogical,
		c.ModeledIOTime.Round(time.Microsecond), c.WallTime.Round(time.Microsecond))
	return b.String()
}
