package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a small shared VM whose speed
// drifts by tens of percent within a minute (the same binary, data and
// query: 20 ms per op in one stretch, 30 ms in the next). A wall-clock
// number taken there says more about the neighbours than about the
// code. So every time-valued metric is divided by a host-speed factor
// measured alongside it: the CPU time of a fixed reference kernel,
// relative to refNominal. The kernel is a miniature plane-sweep
// distance join written here, independent of the repository's code
// (so a change to the engine cannot move it), with the engine's
// instruction mix: interface sorts of small rectangle arrays, a sweep
// with floating-point distance kernels, a struct heap with a closure
// comparator, small allocations. Against topk-warm latency it has
// elasticity 0.99 and correlation 0.97 over a minute of drift, and
// dividing by it cuts the drift-induced range from +-19 % to +-4.5 %.
// A factor of 1 means "this host, quiet"; the raw values are printed
// beside the normalised ones.

// refNominal is the reference kernel's CPU time on the sizing host
// when nothing else runs there.
const refNominal = 880 * time.Microsecond

// probeEvery is the shortest gap between two reference samples; at
// under a millisecond each they cost the run below one percent.
const probeEvery = 100 * time.Millisecond

// probeWindow is how many recent samples the current factor is the
// median of: enough to shrug off one sample hit by an interrupt, short
// enough (half a second) to follow the drift.
const probeWindow = 5

type refRect struct{ x0, y0, x1, y1 float64 }

type refPair struct {
	d    float64
	a, b refRect
	l, r uint64
}

type refByX []refRect

func (s refByX) Len() int           { return len(s) }
func (s refByX) Less(i, j int) bool { return s[i].x0 < s[j].x0 }
func (s refByX) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

type refHeap struct {
	items []refPair
	less  func(a, b refPair) bool
}

func (h *refHeap) push(p refPair) {
	h.items = append(h.items, p)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *refHeap) pop() refPair {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return top
}

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

var refTable = sync.OnceValue(func() []float64 {
	t := make([]float64, 1<<19) // 4 MB, about the size of the trees
	x := uint64(88172645463325252)
	for i := range t {
		t[i] = float64(xorshift(&x)>>11) / (1 << 53)
	}
	return t
})

// refSink keeps the kernel's result alive.
var refSink float64

// refKernel does a fixed amount of engine-like work.
func refKernel() {
	table := refTable()
	x := uint64(2463534242)
	h := &refHeap{less: func(a, b refPair) bool {
		if a.d < b.d {
			return true
		}
		return !(b.d < a.d) && a.l < b.l
	}}
	acc := 0.0
	for round := 0; round < 24; round++ {
		var side [2][]refRect
		for s := range side {
			off := int(xorshift(&x) % uint64(len(table)-256))
			rs := make([]refRect, 64)
			for i := range rs {
				t := table[off+4*i : off+4*i+4]
				rs[i] = refRect{t[0], t[1], t[0] + t[2]*0.01, t[1] + t[3]*0.01}
			}
			sort.Sort(refByX(rs))
			side[s] = rs
		}
		j0 := 0
		for _, a := range side[0] {
			for j0 < 64 && side[1][j0].x1 < a.x0-0.02 {
				j0++
			}
			for j := j0; j < 64 && side[1][j].x0 <= a.x1+0.02; j++ {
				b := side[1][j]
				dx := math.Max(0, math.Max(b.x0-a.x1, a.x0-b.x1))
				dy := math.Max(0, math.Max(b.y0-a.y1, a.y0-b.y1))
				if d := math.Sqrt(dx*dx + dy*dy); d < 0.2 {
					h.push(refPair{d: d, a: a, b: b, l: uint64(j), r: uint64(round)})
				}
			}
		}
		for k := 0; k < 32 && len(h.items) > 0; k++ {
			acc += h.pop().d
		}
	}
	refSink += acc
}

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID. getrusage(RUSAGE_THREAD)
// would need no unsafe, but its times advance in scheduler ticks.
const clockThreadCPU = 3

// threadCPU is the CPU time the calling thread has used; the caller
// has locked its goroutine to the thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostProbe collects reference samples and answers with the host-speed
// factor. One goroutine at a time uses it.
//
// A library workload samples between two ops of its single caller, and
// each op is divided by the median of the last few samples. A serving
// workload samples on a ticker beside the traffic and divides the whole
// phase by the median of its samples: with both processors busy a
// single sample is erratic (it also measures the contention the server
// itself causes), and neither a low quantile of the samples nor samples
// taken while the server idles before and after the phase tracked the
// serving latencies better than that median did.
type hostProbe struct {
	samples []float64 // reference kernel CPU time, seconds
	last    time.Time
}

// sample runs the reference kernel once on a locked thread and records
// its CPU time, which, unlike its wall time, does not grow when the
// thread waits for a processor.
func (h *hostProbe) sample() {
	runtime.LockOSThread()
	c0 := threadCPU()
	refKernel()
	d := threadCPU() - c0
	runtime.UnlockOSThread()
	h.samples = append(h.samples, d.Seconds())
	h.last = time.Now()
}

// sampleN takes n samples back to back and returns the index of the
// first.
func (h *hostProbe) sampleN(n int) (first int) {
	first = len(h.samples)
	for i := 0; i < n; i++ {
		h.sample()
	}
	return first
}

// due reports whether the last sample is at least probeEvery old.
func (h *hostProbe) due() bool { return time.Since(h.last) >= probeEvery }

// factor is the current host-speed factor, the median of the last
// probeWindow samples over the nominal: above 1 on a host running
// slower than the sizing host did.
func (h *hostProbe) factor() float64 {
	return h.since(max(0, len(h.samples)-probeWindow))
}

// since is the factor over all samples from index i on: the factor of
// a whole phase.
func (h *hostProbe) since(i int) float64 {
	if i >= len(h.samples) {
		return 1
	}
	return median(h.samples[i:]) / refNominal.Seconds()
}
