package pqueue

import (
	"math"
	"sync"
)

// KthTracker maintains the k-th smallest value of a dynamic multiset
// under insertions and value deletions, using the classic two-heap
// technique with lazy deletion.
//
// It exists for the "all pairs" distance-queue policy: Hjaltason &
// Samet's algorithms prune with the k-th smallest *upper-bound*
// distance over the pairs currently in the main queue, which requires
// removing a node pair's maximum distance when the pair is dequeued
// for expansion — an operation the simple bounded DistanceQueue cannot
// support soundly (a parent's bound and its children's bounds must
// never be counted together).
//
// Deletions are by value: Delete(v) removes one instance of v, which
// must be present (guaranteed by the callers, which only delete values
// they previously inserted).
type KthTracker struct {
	k      int
	lo     *Heap[float64] // max-heap over the k smallest alive values
	hi     *Heap[float64] // min-heap over the rest
	loDel  map[float64]int
	hiDel  map[float64]int
	loSize int // alive values logically in lo
	hiSize int // alive values logically in hi
}

// kthTrackers holds the trackers Release gave back, empty, with their
// heaps' arrays and their maps' buckets.
var kthTrackers = sync.Pool{New: func() any {
	return &KthTracker{
		lo:    NewHeap(func(a, b *float64) bool { return *a > *b }),
		hi:    NewHeap(func(a, b *float64) bool { return *a < *b }),
		loDel: make(map[float64]int),
		hiDel: make(map[float64]int),
	}
}}

// NewKthTracker returns a tracker for the k-th smallest value, taken
// from the trackers released queries gave back. k must be positive.
func NewKthTracker(k int) *KthTracker {
	if k <= 0 {
		panic("pqueue: KthTracker requires k > 0")
	}
	t := kthTrackers.Get().(*KthTracker)
	t.k = k
	return t
}

// Release empties t and gives it back for a later NewKthTracker. The
// caller must not use t again, nor release it twice: the next query may
// already hold it.
func (t *KthTracker) Release() {
	t.lo.Clear()
	t.hi.Clear()
	clear(t.loDel)
	clear(t.hiDel)
	t.loSize, t.hiSize = 0, 0
	kthTrackers.Put(t)
}

// Len returns the number of alive values.
func (t *KthTracker) Len() int { return t.loSize + t.hiSize }

// Cutoff returns the k-th smallest alive value, or +Inf while fewer
// than k values are alive.
func (t *KthTracker) Cutoff() float64 {
	if t.loSize < t.k {
		return math.Inf(1)
	}
	return t.loTop()
}

// Insert adds v to the multiset.
func (t *KthTracker) Insert(v float64) {
	if t.loSize < t.k {
		t.lo.Push(v)
		t.loSize++
		t.fixBoundary()
		return
	}
	if v <= t.loTop() {
		t.lo.Push(v)
		t.loSize++
		t.moveLoToHi()
	} else {
		t.hi.Push(v)
		t.hiSize++
	}
}

// Delete removes one instance of v, which must be alive.
func (t *KthTracker) Delete(v float64) {
	if t.loSize > 0 && v <= t.loTop() {
		t.loDel[v]++
		t.loSize--
	} else {
		t.hiDel[v]++
		t.hiSize--
	}
	t.rebalance()
}

// loTop returns the alive maximum of lo, purging dead entries.
func (t *KthTracker) loTop() float64 {
	for !t.lo.Empty() {
		v := t.lo.Peek()
		if n := t.loDel[v]; n > 0 {
			if n == 1 {
				delete(t.loDel, v)
			} else {
				t.loDel[v] = n - 1
			}
			t.lo.Pop()
			continue
		}
		return v
	}
	return math.Inf(-1)
}

// hiTop returns the alive minimum of hi, purging dead entries.
func (t *KthTracker) hiTop() float64 {
	for !t.hi.Empty() {
		v := t.hi.Peek()
		if n := t.hiDel[v]; n > 0 {
			if n == 1 {
				delete(t.hiDel, v)
			} else {
				t.hiDel[v] = n - 1
			}
			t.hi.Pop()
			continue
		}
		return v
	}
	return math.Inf(1)
}

// moveLoToHi moves lo's alive maximum into hi (lo has k+1 alive).
func (t *KthTracker) moveLoToHi() {
	t.loTop() // purge
	v := t.lo.Pop()
	t.hi.Push(v)
	t.loSize--
	t.hiSize++
}

// moveHiToLo moves hi's alive minimum into lo.
func (t *KthTracker) moveHiToLo() {
	t.hiTop() // purge
	v := t.hi.Pop()
	t.lo.Push(v)
	t.hiSize--
	t.loSize++
}

// rebalance refills lo up to k alive values from hi.
func (t *KthTracker) rebalance() {
	for t.loSize < t.k && t.hiSize > 0 {
		t.moveHiToLo()
	}
}

// fixBoundary restores max(lo) <= min(hi) after pushing into a
// non-full lo while hi holds values (possible after deletions).
func (t *KthTracker) fixBoundary() {
	for t.hiSize > 0 && t.loSize > 0 && t.hiTop() < t.loTop() {
		// Swap the violating tops.
		t.loTop()
		lv := t.lo.Pop()
		t.hiTop()
		hv := t.hi.Pop()
		t.lo.Push(hv)
		t.hi.Push(lv)
	}
}
