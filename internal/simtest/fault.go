package simtest

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"distjoin/internal/hybridq"
	"distjoin/internal/join"
	"distjoin/internal/obsrv"
	"distjoin/internal/storage"
)

// FaultTarget names one class of injectable I/O point.
type FaultTarget int

const (
	// TargetLeftTree fails an operation on the left tree's page store.
	TargetLeftTree FaultTarget = iota
	// TargetRightTree fails an operation on the right tree's page store.
	TargetRightTree
	// TargetQueue fails an operation on the main-queue segment store.
	TargetQueue
	// TargetSpill fails a hybrid-queue heap split (memory -> disk).
	TargetSpill
	// TargetReload fails a hybrid-queue segment swap-in (disk -> memory).
	TargetReload
	numTargets
)

// faultTargets lists every target in exploration order.
var faultTargets = [numTargets]FaultTarget{
	TargetLeftTree, TargetRightTree, TargetQueue, TargetSpill, TargetReload,
}

// String implements fmt.Stringer with the names ParseSchedule accepts.
func (t FaultTarget) String() string {
	switch t {
	case TargetLeftTree:
		return "ltree"
	case TargetRightTree:
		return "rtree"
	case TargetQueue:
		return "queue"
	case TargetSpill:
		return "spill"
	case TargetReload:
		return "reload"
	default:
		return fmt.Sprintf("FaultTarget(%d)", int(t))
	}
}

// FaultSchedule pins one injected fault: while running Algo, the
// Point-th operation (0-based) against Target fails.
type FaultSchedule struct {
	Algo   string
	Target FaultTarget
	Point  int
}

// String renders the schedule in the algo:target:point form
// ParseSchedule accepts — the -schedule= repro flag.
func (fs *FaultSchedule) String() string {
	return fmt.Sprintf("%s:%s:%d", fs.Algo, fs.Target, fs.Point)
}

// ParseSchedule decodes an algo:target:point schedule string.
func ParseSchedule(s string) (*FaultSchedule, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("simtest: schedule %q is not algo:target:point", s)
	}
	fs := &FaultSchedule{Algo: parts[0]}
	found := false
	for _, a := range Algorithms {
		if a == fs.Algo {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("simtest: schedule %q: unknown algorithm %q (have %v)", s, parts[0], Algorithms)
	}
	switch parts[1] {
	case "ltree":
		fs.Target = TargetLeftTree
	case "rtree":
		fs.Target = TargetRightTree
	case "queue":
		fs.Target = TargetQueue
	case "spill":
		fs.Target = TargetSpill
	case "reload":
		fs.Target = TargetReload
	default:
		return nil, fmt.Errorf("simtest: schedule %q: unknown target %q", s, parts[1])
	}
	p, err := strconv.Atoi(parts[2])
	if err != nil || p < 0 {
		return nil, fmt.Errorf("simtest: schedule %q: bad point %q", s, parts[2])
	}
	fs.Point = p
	return fs, nil
}

// ExploreOpts tunes fault exploration.
type ExploreOpts struct {
	// Algos restricts exploration to the named algorithms (nil = all).
	Algos []string
	// MaxPointsPerTarget samples at most this many points per
	// (algorithm, target); 0 explores every counted point.
	MaxPointsPerTarget int
}

// faultCounts is the per-target operation census of one clean run.
type faultCounts [numTargets]int

// faultEnv is an env whose every I/O point is instrumented: the tree
// stores are FaultStore-wrapped MemStores (built disarmed, so tree
// construction never consumes an armed budget), the main-queue store
// is created fresh per run, and the hybridq spill/reload transitions
// go through a counting hook. Each faultEnv serves one schedule (plus
// its recovery re-run): a fresh environment per schedule keeps runs
// bit-deterministic — cold buffer pools, identical page IDs — so the
// clean-run census maps exactly onto the armed run.
type faultEnv struct {
	*env
	lm, rm *storage.MemStore
	lf, rf *storage.FaultStore
	reg    *obsrv.Registry
}

// newFaultEnv builds the instrumented environment. ref, when non-nil,
// skips the brute-force oracle (ExploreFaults computes it once per
// scenario).
func newFaultEnv(s Scenario, ref []join.Result) (*faultEnv, error) {
	lm, rm := storage.NewMemStore(s.PageSize), storage.NewMemStore(s.PageSize)
	lf, rf := storage.NewFaultStore(lm, -1), storage.NewFaultStore(rm, -1)
	e, err := newEnv(s, lf, rf, ref)
	if err != nil {
		return nil, err
	}
	return &faultEnv{env: e, lm: lm, rm: rm, lf: lf, rf: rf, reg: obsrv.NewRegistry()}, nil
}

// opCount folds a store's cumulative stats into one operation count,
// mirroring FaultStore's tick (which charges Alloc, ReadPage and
// WritePage uniformly).
func opCount(st storage.StoreStats) int {
	return int(st.Reads + st.Writes + st.Allocs)
}

// run executes algo once. A nil sched is a clean (counting) run; a
// non-nil sched arms exactly one fault. The returned census counts the
// operations of THIS run (tree ops are measured as deltas, the queue
// store and the spill/reload hooks are fresh per run).
func (fe *faultEnv) run(algo string, sched *FaultSchedule) ([]join.Result, faultCounts, error) {
	fe.lf.Disarm()
	fe.rf.Disarm()
	qm := storage.NewMemStore(fe.s.PageSize)
	qf := storage.NewFaultStore(qm, -1)
	if sched != nil {
		switch sched.Target {
		case TargetLeftTree:
			fe.lf.Arm(sched.Point)
		case TargetRightTree:
			fe.rf.Arm(sched.Point)
		case TargetQueue:
			qf.Arm(sched.Point)
		}
	}
	// The engines call the hook from the query's goroutine only, so the
	// counters need no lock.
	var spills, reloads int
	hook := func(op hybridq.FaultOp) error {
		n, target := &spills, TargetSpill
		if op == hybridq.FaultReload {
			n, target = &reloads, TargetReload
		}
		i := *n
		*n++
		if sched != nil && sched.Target == target && sched.Point == i {
			return fmt.Errorf("simtest: injected %s fault at point %d: %w", target, i, storage.ErrInjected)
		}
		return nil
	}
	l0, r0 := fe.lm.Stats(), fe.rm.Stats()
	got, err := fe.runAlgo(algo, fe.options(qf, hook, fe.reg), len(fe.ref))
	var counts faultCounts
	counts[TargetLeftTree] = opCount(fe.lm.Stats()) - opCount(l0)
	counts[TargetRightTree] = opCount(fe.rm.Stats()) - opCount(r0)
	counts[TargetQueue] = opCount(qm.Stats())
	counts[TargetSpill] = spills
	counts[TargetReload] = reloads
	return got, counts, err
}

// checkWarmCensus reruns algo cleanly on the trees the census run just
// used, from cold buffer pools. The trees' sweep-order memo is now
// filled, so expansions decode in order where the census run sorted,
// yet every page is still fetched: the rerun must reproduce the oracle
// and the census operation for operation — a memoized node that
// skipped its page read would also skip its fault point.
func (fe *faultEnv) checkWarmCensus(algo string, census faultCounts) error {
	if err := fe.coldPools(); err != nil {
		return failf(fe.s, nil, "fault-count-warm", "invalidating pool: %v", err)
	}
	got, counts, err := fe.run(algo, nil)
	if err != nil {
		return failf(fe.s, nil, "fault-count-warm", "%s clean rerun failed: %v", algo, err)
	}
	if err := fe.compareExact("fault-count-warm", algo, got); err != nil {
		return err
	}
	if counts != census {
		return failf(fe.s, nil, "fault-count-warm", "%s census changed on a warm index: %v, cold %v", algo, counts, census)
	}
	return nil
}

// samplePoints picks the points to explore out of n counted ones: all
// of them when max <= 0 or n <= max, an evenly-strided subset (always
// including point 0) otherwise.
func samplePoints(n, max int) []int {
	if n <= 0 {
		return nil
	}
	if max <= 0 || n <= max {
		pts := make([]int, n)
		for i := range pts {
			pts[i] = i
		}
		return pts
	}
	pts := make([]int, 0, max)
	for i := 0; i < max; i++ {
		pts = append(pts, i*n/max)
	}
	return pts
}

// ExploreFaults runs the fault-schedule battery for one scenario: for
// each algorithm it counts every I/O point on a clean run (which must
// itself reproduce the oracle), then arms each counted point in turn
// and asserts the engine fails closed. It returns nil or the first
// *Failure, whose Error() carries the -seed= and -schedule= repro.
func ExploreFaults(s Scenario, opts ExploreOpts) error {
	base, err := newEnv(s, storage.NewMemStore(s.PageSize), storage.NewMemStore(s.PageSize), nil)
	if err != nil {
		return failf(s, nil, "fault-setup", "building environment: %v", err)
	}
	ref := base.ref
	algos := opts.Algos
	if len(algos) == 0 {
		algos = Algorithms
	}
	baseG := runtime.NumGoroutine()
	for _, algo := range algos {
		fe, err := newFaultEnv(s, ref)
		if err != nil {
			return failf(s, nil, "fault-setup", "building environment: %v", err)
		}
		got, counts, err := fe.run(algo, nil)
		if err != nil {
			return failf(s, nil, "fault-count", "%s clean run failed: %v", algo, err)
		}
		if err := fe.compareExact("fault-count", algo, got); err != nil {
			return err
		}
		if err := fe.checkWarmCensus(algo, counts); err != nil {
			return err
		}
		for _, target := range faultTargets {
			for _, point := range samplePoints(counts[target], opts.MaxPointsPerTarget) {
				sched := &FaultSchedule{Algo: algo, Target: target, Point: point}
				if err := runSchedule(s, ref, sched, baseG); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ErrScheduleNeverFires reports that a -schedule repro names a fault
// point the clean-run census proves unreachable: the armed operation
// would never execute, so the "repro" would silently test nothing.
// Callers (cmd/distjoin-sim) surface it instead of reporting a hollow
// pass.
var ErrScheduleNeverFires = errors.New("simtest: schedule names a fault point that never fires")

// RunSchedule reproduces one fault schedule from the command line: a
// clean census run first (to decide whether the point is reachable),
// then the armed run with the full fail-closed battery.
//
// The census is bit-deterministic, so a schedule point at or beyond
// the census total is rejected with ErrScheduleNeverFires rather than
// degraded into a no-op run.
func RunSchedule(s Scenario, sched *FaultSchedule) error {
	fe, err := newFaultEnv(s, nil)
	if err != nil {
		return failf(s, sched, "fault-setup", "building environment: %v", err)
	}
	got, counts, err := fe.run(sched.Algo, nil)
	if err != nil {
		return failf(s, sched, "fault-count", "%s clean run failed: %v", sched.Algo, err)
	}
	if err := fe.compareExact("fault-count", sched.Algo, got); err != nil {
		return err
	}
	if sched.Point >= counts[sched.Target] {
		return fmt.Errorf("%w: %s counted %d %s operation(s), schedule wants point %d",
			ErrScheduleNeverFires, sched.Algo, counts[sched.Target], sched.Target, sched.Point)
	}
	return runSchedule(s, fe.ref, sched, runtime.NumGoroutine())
}

// runSchedule executes one armed schedule on a fresh environment and
// applies the fail-closed battery:
//
//   - an error must surface (execution is bit-deterministic, so an
//     armed point below the census total always fires) and must wrap
//     the injected fault (storage.ErrInjected);
//   - the observability registry must show nothing in flight;
//   - the goroutine count must settle back to the pre-run baseline;
//   - a disarmed re-run on the same trees must reproduce the oracle
//     (the fault must not poison the buffer pool or tree state).
func runSchedule(s Scenario, ref []join.Result, sched *FaultSchedule, baseG int) error {
	fe, err := newFaultEnv(s, ref)
	if err != nil {
		return failf(s, sched, "fault-setup", "building environment: %v", err)
	}
	_, _, runErr := fe.run(sched.Algo, sched)
	if runErr == nil {
		return failf(s, sched, "fault", "%s swallowed the injected fault: no error surfaced", sched.Algo)
	}
	if !errors.Is(runErr, storage.ErrInjected) {
		return failf(s, sched, "fault", "%s surfaced an error that does not wrap the injected fault: %v", sched.Algo, runErr)
	}
	if n := fe.reg.InFlight(); n != 0 {
		return failf(s, sched, "fault", "%d queries still in flight after faulted %s run", n, sched.Algo)
	}
	if err := settleGoroutines(baseG); err != nil {
		return failf(s, sched, "fault", "%s: %v", sched.Algo, err)
	}
	// Recovery: the injected fault must leave the shared state (trees,
	// buffer pools, the partly filled sweep-order memo) clean enough
	// that an immediate re-run reproduces the oracle.
	rec, _, err := fe.run(sched.Algo, nil)
	if err != nil {
		return failf(s, sched, "fault-recovery", "%s re-run after fault failed: %v", sched.Algo, err)
	}
	if err := fe.compareExact("fault-recovery", sched.Algo, rec); err != nil {
		return err
	}
	if n := fe.reg.InFlight(); n != 0 {
		return failf(s, sched, "fault-recovery", "%d queries still in flight after recovery run", n)
	}
	return nil
}

// settleGoroutines waits for the goroutine count to return to (near)
// the baseline, catching a leaked goroutine. The small slack
// absorbs runtime-internal goroutines (GC workers) starting up.
func settleGoroutines(base int) error {
	const slack = 2
	deadline := time.Now().Add(2 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= base+slack {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d running, baseline %d", n, base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
