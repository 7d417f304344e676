package hybridq

import (
	"fmt"
	"math"
	"sort"

	"distjoin/internal/metrics"
	"distjoin/internal/storage"
	"distjoin/internal/trace"
)

// Queue is the hybrid memory/disk main queue. It behaves as a strict
// priority queue over Pairs (Pop always returns the global minimum by
// PairLess) while bounding memory to the configured budget. A Queue
// belongs to one query and is not safe for concurrent use.
//
// Storage errors are latched: after the first error every operation
// becomes a no-op and Err reports the cause. The join algorithms check
// Err once at the end of a run.
type Queue struct {
	heap     pairHeap
	capacity int     // max heap elements (n of §4.4)
	memBound float64 // exclusive upper bound of the in-memory range
	// unit is capacity·ρ, the step of the §4.4 model boundaries in
	// squared distance: floor(dist²/unit) is dist's model index, which
	// modelRange bounds and route turns into a route table entry.
	// Without a model (ρ not positive) it is +Inf: there are no model
	// boundaries, and every finite distance routes by entry 0.
	unit float64
	// segs are the disk segments, sorted by lo, and lows their lower
	// bounds, in step with segs: what searchSegment searches. Both arrays
	// are the scratch's, bound at the first spill and given back with it.
	segs []*segment
	lows []float64
	// store holds the spilled pages, free lists those no segment holds.
	// With Config.Store both are the queue's for its lifetime. A
	// private queue (no Config.Store) borrows both from its scratch:
	// they are nil until the first spill and go back with Release.
	store    pageStore
	free     []storage.PageID
	private  bool
	pageSize int // store's page size, known before the store is bound
	perPage  int
	mc       *metrics.Collector
	tr       *trace.Tracer
	fault    func(op FaultOp) error
	err      error
	// diskPairs is the number of pairs in q.segs, kept running so Len
	// (called once per push by the join) never walks the segments.
	diskPairs int
	// splitFloor and the tie run handle an over-capacity heap that holds
	// nothing spillable: when a split (or an over-capacity swap-in) finds
	// every pair sharing one distance, the run stays in memory whole —
	// equal distances never straddle the memory/disk boundary — and the
	// heap length is recorded in splitFloor. A push is an overflow only
	// once the heap grows past splitFloor. While tieRun holds, every pair
	// in the heap has distance tieDist, so an overflowing push of one more
	// tied pair is known to find nothing to spill: it advances splitFloor
	// and the bound exactly as that split would have, in O(1). A pair of
	// any other distance entering the heap ends the run, and the next
	// overflow splits for real.
	splitFloor int
	tieRun     bool
	tieDist    float64
	// arg is where Push stages its by-value argument (see Push).
	arg Pair
	// out is the pair Pop and Peek hand out: assembled from the
	// minimum's key and slab entry, and written by nothing else.
	out Pair
	// sc is the disk path's scratch (pool.go): nil until the first
	// spill, held until Release.
	sc *scratch
}

// FaultOp identifies one injectable disk-path operation of the queue,
// used by failure-injection tests (join fault tests, internal/simtest)
// to enumerate and fail every spill/reload point deterministically.
type FaultOp int

const (
	// FaultSpill fires when pairs move to a new disk segment: a heap
	// split with a non-empty spilled tail, or a push beyond the
	// in-memory bound that opens the segment its distance falls in.
	FaultSpill FaultOp = iota
	// FaultReload fires when a drained heap swaps a disk segment back
	// in (swapIn with at least one segment available).
	FaultReload
)

// String names the operation for schedule printing ("spill"/"reload").
func (op FaultOp) String() string {
	switch op {
	case FaultSpill:
		return "spill"
	case FaultReload:
		return "reload"
	default:
		return "unknown"
	}
}

// pageStore is the part of a store the queue spills through: a
// Config.Store, or a private queue's pooled spillStore.
type pageStore interface {
	Alloc() (storage.PageID, error)
	ReadPage(id storage.PageID, buf []byte) error
	WritePage(id storage.PageID, buf []byte) error
}

// segment is one on-disk unsorted pile covering the distance range
// [lo, hi).
type segment struct {
	lo, hi   float64
	pages    []storage.PageID
	buf      []byte // partial trailing page
	bufCount int
	count    int
}

// Config parameterizes a Queue.
type Config struct {
	// MemBytes is the memory budget for the in-memory heap (§5's
	// "size of in-memory portion of a main queue"). Minimum one pair.
	MemBytes int
	// Rho is the density factor from estimate.Model.Rho used to place
	// model-based segment boundaries. Zero disables model boundaries:
	// the queue then relies purely on overflow splits.
	Rho float64
	// Store holds spilled segments. Nil spills into in-memory pages of
	// the default page size that outlive the query (pool.go): the
	// queue takes them from a pool as it spills and Release gives them
	// all back, so the next query's spills write into them. The pool
	// drops pages no spill takes within two collections. A queue given
	// a Store never sees the pooled pages, and its own pages never
	// enter the pool.
	Store storage.Store
	// Metrics receives queue page I/O accounting (may be nil).
	Metrics *metrics.Collector
	// Trace, when non-nil, receives queue_spill / queue_reload events
	// with the memory-vs-disk segment depth at each spill (a heap split,
	// or a push opening a segment) and segment swap-in. Nil costs
	// nothing.
	Trace *trace.Tracer
	// FaultHook, when non-nil, is invoked at the start of every
	// spill (a heap split moving pairs to disk, or a push opening a
	// disk segment) and reload (segment swap-in). Returning a non-nil error aborts the operation and
	// latches the queue into its failed state, exactly as a storage
	// error would. This is the failure-injection surface used by the
	// deterministic simulation harness: unlike store-level faults it
	// fires even when segment pages are still sitting in write
	// buffers, so every logical disk transition is a schedulable
	// fault point. Nil costs nothing.
	FaultHook func(op FaultOp) error
}

// New returns an empty hybrid queue.
func New(cfg Config) *Queue {
	pageSize := storage.DefaultPageSize
	if cfg.Store != nil {
		pageSize = cfg.Store.PageSize()
	}
	capacity := cfg.MemBytes / RecordSize
	if capacity < 1 {
		capacity = 1
	}
	// §4.4: the boundary between the in-memory heap and the first
	// disk segment is sqrt(n*rho). Distant pairs spill immediately
	// instead of churning through the heap; an underestimated model is
	// corrected by overflow splits, an overestimated one by swap-ins.
	memBound, unit := math.Inf(1), math.Inf(1)
	if u := float64(capacity) * cfg.Rho; u > 0 {
		memBound, unit = math.Sqrt(u), u
	}
	return &Queue{
		capacity: capacity,
		memBound: memBound,
		unit:     unit,
		store:    cfg.Store,
		private:  cfg.Store == nil,
		pageSize: pageSize,
		perPage:  pageSize / RecordSize,
		mc:       cfg.Metrics,
		tr:       cfg.Trace,
		fault:    cfg.FaultHook,
	}
}

// Len returns the total number of queued pairs (memory + disk).
func (q *Queue) Len() int {
	return q.heap.Len() + q.diskPairs
}

// Empty reports whether no pairs are queued.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// MemLen returns the number of pairs currently in the in-memory heap.
func (q *Queue) MemLen() int {
	return q.heap.Len()
}

// Segments returns the number of on-disk segments.
func (q *Queue) Segments() int {
	return len(q.segs)
}

// Depth reports the in-memory pair count, the spilled (on-disk) pair
// count, and the number of on-disk segments — the shape the live query
// inspector samples, cheap enough to call on the hot path at a bounded
// rate.
func (q *Queue) Depth() (mem, disk, segments int) {
	return q.heap.Len(), q.diskPairs, len(q.segs)
}

// Err returns the first storage error encountered, if any.
func (q *Queue) Err() error {
	return q.err
}

// Push enqueues p. It stages the argument in the queue so that PushFrom
// can read it through a pointer without a heap allocation per call.
func (q *Queue) Push(p Pair) {
	q.arg = p
	q.PushFrom(&q.arg)
}

// PushFrom enqueues a copy of *p, reading it in place: a pair bound for
// the in-memory heap is copied once, into a key and a slab entry, and
// one bound for disk is encoded into its segment's page buffer. The
// queue does not keep p, so the caller may reuse it as soon as the call
// returns; p may be the pair Pop handed out.
func (q *Queue) PushFrom(p *Pair) {
	if q.err != nil {
		return
	}
	if p.Dist < q.memBound {
		q.heap.PushFrom(p)
		// Ordered comparisons, not ==: a heap distance is never NaN.
		tied := q.tieRun && !(p.Dist < q.tieDist) && !(p.Dist > q.tieDist)
		q.tieRun = tied
		if n := q.heap.Len(); n > q.capacity && n > q.splitFloor {
			if tied {
				q.holdTieRun(n)
			} else {
				q.splitHeap()
			}
		}
		return
	}
	q.spill(p)
}

// holdTieRun records that the n-pair heap is a single run of distance
// q.tieDist kept in memory whole: pairs beyond it spill directly, and
// no split is attempted until the heap outgrows n.
func (q *Queue) holdTieRun(n int) {
	q.memBound = math.Nextafter(q.tieDist, math.Inf(1))
	q.splitFloor = n
}

// Pop removes the minimum pair and returns it in place: p points to a
// Pair the queue owns, valid until the next Pop, Peek, Drain or
// Release. Pushes do not write it, so a caller may read *p while it
// pushes the pair's children; one that keeps the pair copies *p. ok is
// false, and p nil, when the queue is empty or a storage error is
// latched.
func (q *Queue) Pop() (p *Pair, ok bool) {
	if q.err != nil {
		return nil, false
	}
	if q.heap.Len() == 0 {
		if !q.swapIn() {
			return nil, false
		}
	}
	q.heap.PopInto(&q.out)
	return &q.out, true
}

// Peek returns the minimum pair without removing it, in place as Pop
// does.
func (q *Queue) Peek() (p *Pair, ok bool) {
	if q.err != nil {
		return nil, false
	}
	if q.heap.Len() == 0 {
		if !q.swapIn() {
			return nil, false
		}
	}
	q.heap.PeekInto(&q.out)
	return &q.out, true
}

// splitHeap handles heap overflow: the longer-distance half of the
// heap is moved to a new disk segment and the in-memory bound shrinks
// to the split distance.
//
// Pairs sharing one distance are never split across the memory/disk
// boundary: queue consumers rely on equal-distance pairs popping in
// their full Less order, which holds only if a tie run always lives in
// a single region. When the split point lands inside a run, the whole
// run stays in memory — the budget is temporarily exceeded by the run
// length — and only the strictly-longer tail spills.
//
// The split sorts a copy of the heap's keys. A heap rebuilt from the
// kept prefix by pushes in sorted order is that prefix, so the prefix
// is copied back as the new heap; the spilled keys are encoded from
// their slab entries, whose slots they free.
func (q *Queue) splitHeap() {
	sc := q.scratch()
	h := &q.heap
	keys := append(sc.slab(h.Len()), h.keys...)
	want := len(keys) / 2
	if want < 1 {
		want = 1
	}
	keep, bound := sc.tieSafeSplit(keys, want)
	if keep == len(keys) {
		// Nothing spillable — the whole heap is one tie run. Leave it
		// in memory, shrink the bound so longer pairs spill directly,
		// and stop re-splitting until the heap can actually shed load.
		q.tieRun, q.tieDist = true, keys[0].Dist
		q.holdTieRun(len(keys))
		return
	}

	// An actual spill is about to happen: give the fault hook its
	// deterministic injection point before any state is mutated, so a
	// failed spill leaves the heap intact and the error latched.
	if q.fault != nil {
		if err := q.fault(FaultSpill); err != nil {
			q.err = err
			return
		}
	}
	hi := q.memBound
	q.memBound = bound
	q.splitFloor = 0
	seg := sc.segment(bound, hi, q.pageSize)
	for i := keep; i < len(keys); i++ {
		q.spillKey(seg, &keys[i])
	}
	q.insertSegment(seg)

	h.keys = append(h.keys[:0], keys[:keep]...)
	q.spilled(bound, len(keys)-keep)
}

// spilled emits the queue_spill event of n pairs just moved to the
// segment that starts at distance lo.
func (q *Queue) spilled(lo float64, n int) {
	if q.tr.Enabled() {
		q.tr.Emit(trace.Event{
			Kind:     trace.KindQueueSpill,
			Dist:     lo,
			Count:    int64(n),
			MemLen:   q.heap.Len(),
			DiskLen:  q.diskPairs,
			Segments: len(q.segs),
		})
	}
}

// tieSafeSplit sorts keys and places the memory/disk boundary so that
// about want pairs stay in memory: keys[:keep] stay and bound is the
// exclusive upper distance of the kept range. want must be below
// len(keys). The sort's permutation depends only on the outcomes of
// keyLess, which are PairLess's on the pairs, so it is the one a sort
// of the pairs themselves makes.
//
// Pairs at the split distance spill with the long half, so that the
// routing invariant (the heap holds only dist < memBound) is kept.
// When that would leave nothing in memory the split point lies inside
// a single-distance run: the whole run stays, even over capacity, and
// only pairs strictly beyond it spill. keep == len(keys) then means
// nothing is spillable: every pair shares one distance.
func (sc *scratch) tieSafeSplit(keys []key, want int) (keep int, bound float64) {
	// A pointer to the scratch's field converts to sort.Interface
	// without allocating; the slice itself would be boxed every call.
	sc.order = keys
	sort.Sort(&sc.order)
	sc.order = nil
	keep, bound = want, keys[want].Dist
	//lint:allow floatcmp tie-run boundary scan is bit-exact by design: equal distances must never straddle the memory/disk boundary
	for keep > 0 && keys[keep-1].Dist == bound {
		keep--
	}
	if keep > 0 {
		return keep, bound
	}
	split := bound
	keep = sort.Search(len(keys), func(i int) bool { return keys[i].Dist > split })
	return keep, math.Nextafter(split, math.Inf(1))
}

// spill routes p to the disk segment covering its distance, creating a
// model-boundary segment if none exists: the routed one if the route
// table holds it, else the one searchSegment finds or creates. A push
// that opens a segment is a spill as a heap split is: it has its fault
// point (in searchSegment) and its queue_spill event, of the one pair.
func (q *Queue) spill(p *Pair) {
	seg := q.routed(p.Dist)
	opened := false
	if seg == nil {
		n := len(q.segs)
		if seg = q.searchSegment(p.Dist); seg == nil {
			return // the fault hook refused the opening
		}
		opened = len(q.segs) > n
	}
	if buf := q.record(seg); buf != nil {
		p.encode(buf)
		q.recorded(seg)
	}
	if opened {
		q.spilled(seg.lo, 1)
	}
}

// spillKey moves a key leaving the heap to seg: its record is encoded
// from the key and its slab entry, and its slot freed.
func (q *Queue) spillKey(seg *segment, k *key) {
	if buf := q.record(seg); buf != nil {
		k.encode(buf, &q.heap.rects[k.slot])
		q.recorded(seg)
	}
	q.heap.freeSlot(k)
}

// routed returns the segment the route table holds for dist if its
// range holds dist, else nil. Segments are disjoint, so a routed
// segment that holds dist is the one searchSegment would return.
// Nearly every spill lands in a segment that covers its distance's
// whole model range, or in the open-ended one past the last boundary,
// so the search runs about once per segment. It must stay small enough
// to inline into spill (make inline-check).
func (q *Queue) routed(dist float64) *segment {
	if q.sc != nil {
		if s := q.sc.routes[q.route(dist)]; s != nil && s.lo <= dist && dist < s.hi {
			return s
		}
	}
	return nil
}

// route returns dist's entry in the route table: its model index
// floor(dist²/unit) below maxModelSegments, else the entry past them,
// shared by every distance beyond the last model boundary (and by NaN,
// which no segment holds).
func (q *Queue) route(dist float64) int {
	if x := dist * dist / q.unit; x < maxModelSegments {
		return int(x)
	}
	return maxModelSegments
}

// searchSegment locates or creates the segment containing dist, which
// is >= memBound, and routes dist's entry of the route table to it. q.segs is sorted by lo and disjoint,
// so only the last segment starting at or below dist can contain it,
// and a new segment can only collide with that one and the one after
// it. The search is sort.Search's over q.lows, written out: no closure,
// and one array of bounds instead of a pointer chase per probe. It
// returns nil, with the error latched, when the fault hook refuses a
// segment's opening.
func (q *Queue) searchSegment(dist float64) *segment {
	lows := q.lows
	i, j := 0, len(lows)
	for i < j {
		m := int(uint(i+j) >> 1)
		if lows[m] > dist {
			j = m
		} else {
			i = m + 1
		}
	}
	var seg *segment
	if i > 0 && dist < q.segs[i-1].hi {
		seg = q.segs[i-1]
	} else {
		// Opening a segment is a spill: the fault hook's injection
		// point comes before any state is mutated, and a refusal
		// latches, returning no segment.
		if q.fault != nil {
			if err := q.fault(FaultSpill); err != nil {
				q.err = err
				return nil
			}
		}
		// Create a segment from the model boundaries sqrt(i*n*rho),
		// clipped against the neighbouring segments and the memory
		// bound.
		lo, hi := q.modelRange(dist)
		if lo < q.memBound {
			lo = q.memBound
		}
		if i > 0 {
			if below := q.segs[i-1]; below.hi > lo {
				lo = below.hi
			}
		}
		if i < len(q.segs) {
			if above := q.segs[i]; above.lo < hi {
				hi = above.lo
			}
		}
		seg = q.scratch().segment(lo, hi, q.pageSize)
		q.insertSegment(seg)
	}
	q.sc.routes[q.route(dist)] = seg
	return seg
}

// maxModelSegments caps how many model-boundary segments may exist.
// Each segment carries one page of write buffer, so unbounded segment
// creation would silently defeat the memory budget; distances beyond
// the last boundary share one open-ended segment.
const maxModelSegments = 64

// modelRange returns the §4.4 model boundaries surrounding dist:
// [sqrt(i*n*rho), sqrt((i+1)*n*rho)) for the i containing dist. With
// no usable model the range is unbounded; beyond the segment cap the
// last range extends to infinity.
func (q *Queue) modelRange(dist float64) (lo, hi float64) {
	unit := q.unit
	if math.IsInf(unit, 1) || math.IsInf(dist, 1) {
		return 0, math.Inf(1)
	}
	i := math.Floor(dist * dist / unit)
	if i >= maxModelSegments {
		return math.Sqrt(maxModelSegments * unit), math.Inf(1)
	}
	lo = math.Sqrt(i * unit)
	hi = math.Sqrt((i + 1) * unit)
	// Guard against floating-point edge effects at boundaries.
	if dist < lo {
		lo = dist
	}
	if dist >= hi {
		hi = math.Nextafter(dist, math.Inf(1))
	}
	return lo, hi
}

// insertSegment adds seg keeping q.segs sorted by lo, and q.lows in
// step. Segment ranges are disjoint by construction (searchSegment clips
// against existing segments, splits always carve below the spilled
// range), so a plain insertion shift is equivalent to the full sort it
// replaced — and allocation-free, which the steady-state allocation
// tests rely on.
func (q *Queue) insertSegment(seg *segment) {
	q.segs = append(q.segs, seg)
	q.lows = append(q.lows, seg.lo)
	i := len(q.segs) - 1
	for i > 0 && q.lows[i-1] > seg.lo {
		q.segs[i], q.lows[i] = q.segs[i-1], q.lows[i-1]
		i--
	}
	q.segs[i], q.lows[i] = seg, seg.lo
}

// record returns the buffer the next record of seg is encoded into:
// the rest of its trailing page buffer. It is nil once an error is
// latched; otherwise recorded must follow the encoding.
func (q *Queue) record(seg *segment) []byte {
	if q.err != nil {
		return nil
	}
	return seg.buf[seg.bufCount*RecordSize:]
}

// recorded counts the record just encoded into seg's trailing page
// buffer, flushing a full page to the store.
func (q *Queue) recorded(seg *segment) {
	seg.bufCount++
	seg.count++
	q.diskPairs++
	if seg.bufCount == q.perPage {
		q.flushSegmentPage(seg)
	}
}

// flushSegmentPage writes the segment's buffered records to a page.
func (q *Queue) flushSegmentPage(seg *segment) {
	id, err := q.allocPage()
	if err != nil {
		q.err = err
		return
	}
	if err := q.store.WritePage(id, seg.buf); err != nil {
		q.err = err
		return
	}
	q.mc.QueueIO(0, 1, metrics.SequentialPageCost)
	seg.pages = append(seg.pages, id)
	seg.bufCount = 0
}

func (q *Queue) allocPage() (storage.PageID, error) {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		return id, nil
	}
	return q.store.Alloc()
}

// swapIn loads the lowest-range segment into the heap, splitting it if
// it exceeds the memory capacity. Returns false when no segment
// exists or an error latched.
func (q *Queue) swapIn() bool {
	if len(q.segs) == 0 || q.err != nil {
		return false
	}
	// A reload is about to happen: injection point before any state is
	// mutated, so a failed reload leaves segments intact and latches.
	if q.fault != nil {
		if err := q.fault(FaultReload); err != nil {
			q.err = err
			return false
		}
	}
	// Shift rather than re-slice, so the list keeps its capacity and
	// insertSegment's append stays allocation-free.
	seg := q.segs[0]
	n := copy(q.segs, q.segs[1:])
	copy(q.lows, q.lows[1:])
	q.segs[n] = nil
	q.segs, q.lows = q.segs[:n], q.lows[:n]
	q.sc.unroute(seg)
	q.diskPairs -= seg.count
	q.splitFloor, q.tieRun = 0, false // heap is empty; any previous overrun is gone

	// The heap is empty, so the records decode straight into its keys
	// and slab, slot i for record i. Over capacity they are sorted in
	// place and the tail spills: the sorted prefix is the heap pushes in
	// sorted order would build. Otherwise they are ordered as pushes in
	// decoded order would order them.
	sc := q.scratch()
	h := &q.heap
	page := sc.pageBuf(q.pageSize)
	for _, id := range seg.pages {
		if err := q.store.ReadPage(id, page); err != nil {
			h.Clear() // a failed reload leaves the heap empty
			q.err = err
			return false
		}
		q.mc.QueueIO(1, 0, metrics.SequentialPageCost)
		for i := 0; i < q.perPage; i++ {
			h.decodeInto(page[i*RecordSize:])
		}
		q.free = append(q.free, id)
	}
	for i := 0; i < seg.bufCount; i++ {
		h.decodeInto(seg.buf[i*RecordSize:])
	}

	q.memBound = seg.hi
	if len(h.keys) > q.capacity {
		keep, bound := sc.tieSafeSplit(h.keys, q.capacity)
		if keep == len(h.keys) {
			q.splitFloor = len(h.keys)
			q.tieRun, q.tieDist = true, h.keys[0].Dist
		} else {
			rest := sc.segment(bound, seg.hi, q.pageSize)
			for i := keep; i < len(h.keys); i++ {
				q.spillKey(rest, &h.keys[i])
			}
			q.insertSegment(rest)
			h.keys = h.keys[:keep]
			q.memBound = bound
		}
	} else {
		h.heapify()
	}
	loaded := h.Len()
	if q.tr.Enabled() {
		q.tr.Emit(trace.Event{
			Kind:     trace.KindQueueReload,
			Dist:     seg.lo,
			Count:    int64(loaded),
			MemLen:   q.heap.Len(),
			DiskLen:  q.diskPairs,
			Segments: len(q.segs),
		})
	}
	// The segment is fully consumed — every record decoded and copied
	// onward — so the next spill can reuse it whole.
	sc.retire(seg)
	return loaded > 0 || q.swapIn()
}

// scratch returns the queue's scratch, taking one from the pool at the
// first spill. A private queue binds the scratch's spill store and free
// list here, both empty, so every use of q.store or q.free comes after
// a call to scratch.
func (q *Queue) scratch() *scratch {
	if q.sc == nil {
		q.sc = scratchPool.Get().(*scratch)
		q.sc.sizeSegList()
		q.segs, q.lows = q.sc.segList[:0], q.sc.lows[:0]
		if q.private {
			q.store, q.free = &q.sc.spill, q.sc.free
		}
	}
	return q.sc
}

// Release empties the queue and gives its heap's arrays and its
// scratch back to their pools: a query calls it once its results are
// out. It is idempotent, and a queue that never spilled has no scratch
// to give back; a latched error stays latched. The scratch takes back
// the emptied segment list and bound array, and a private queue gives
// every spill page back to pagePool and hands the scratch its emptied
// page table and free list. A released queue may be pushed to again: it
// takes fresh arrays at its next push and a fresh scratch at its next
// spill.
func (q *Queue) Release() {
	q.Drain()
	q.heap.release()
	if q.sc != nil {
		q.sc.segList, q.sc.lows = q.segs, q.lows
		q.segs, q.lows = nil, nil
		if q.private {
			q.sc.spill.release()
			q.sc.free = q.free[:0]
			q.store, q.free = nil, nil
		}
		scratchPool.Put(q.sc)
		q.sc = nil
	}
}

// Drain removes all pairs and keeps the scratch: the segments go to its
// free list, their pages to q.free.
func (q *Queue) Drain() {
	q.heap.Clear()
	for _, s := range q.segs {
		q.free = append(q.free, s.pages...)
		q.sc.retire(s)
	}
	clear(q.segs)
	q.segs, q.lows = q.segs[:0], q.lows[:0]
	if q.sc != nil {
		clear(q.sc.routes[:])
	}
	q.diskPairs = 0
	q.memBound = math.Inf(1)
	q.splitFloor, q.tieRun = 0, false
}

// String summarizes the queue state for diagnostics.
func (q *Queue) String() string {
	n := q.heap.Len() + q.diskPairs
	return fmt.Sprintf("hybridq{mem=%d/%d bound=%g segs=%d total=%d}",
		q.heap.Len(), q.capacity, q.memBound, len(q.segs), n)
}
