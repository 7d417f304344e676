// Package experiments implements the paper's evaluation (§5): the
// TIGER-like workload, per-figure experiment drivers, and table
// formatting. It is shared by cmd/distjoin-bench (the CLI harness) and
// the repository-level benchmarks in bench_test.go.
//
// Every experiment is parameterized by a Scale factor: the paper joins
// 633,461 Arizona street segments with 189,642 hydrographic objects
// and sweeps the stopping cardinality k up to 100,000; scaling
// multiplies both data sizes and the k series so the k/N ratios — and
// therefore the comparative shapes the paper reports — are preserved
// at laptop-friendly run times.
package experiments

import (
	"fmt"
	"sync"

	"distjoin/internal/datagen"
	"distjoin/internal/join"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// Paper-scale dataset sizes (§5.1).
const (
	FullStreets = 633461
	FullHydro   = 189642
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies the paper's data sizes and k series (1.0 =
	// full TIGER-scale). Typical: 0.05 for an interactive harness run,
	// 0.01 for benchmarks.
	Scale float64
	// QueueMemBytes is the in-memory main-queue portion (default the
	// paper's 512 KB).
	QueueMemBytes int
	// BufferBytes is the R-tree buffer pool size (default 512 KB).
	BufferBytes int
	// Seed drives the synthetic data generators.
	Seed int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.QueueMemBytes <= 0 {
		c.QueueMemBytes = 512 * 1024
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 512 * 1024
	}
	if c.Seed == 0 {
		c.Seed = 20000516 // SIGMOD 2000, May 16
	}
	return c
}

// KSeries returns the paper's k sweep {10, 100, 1k, 10k, 100k} scaled
// (deduplicated: small scales collapse the low end).
func (c Config) KSeries() []int {
	return scaleKSeries([]int{10, 100, 1000, 10000, 100000}, c.Scale)
}

// Table2KSeries returns Table 2's k values {100, 1k, 10k, 100k} scaled.
func (c Config) Table2KSeries() []int {
	return scaleKSeries([]int{100, 1000, 10000, 100000}, c.Scale)
}

func scaleKSeries(ks []int, scale float64) []int {
	out := make([]int, 0, len(ks))
	for _, k := range ks {
		s := scaleK(k, scale)
		if len(out) == 0 || s > out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

func scaleK(k int, scale float64) int {
	s := int(float64(k) * scale)
	if s < 1 {
		s = 1
	}
	return s
}

// Workload is the prepared join input: two packed R*-trees over the
// TIGER-like streets and hydrography sets, plus the distance oracle
// the SJ-SORT baseline and Figures 14/15 need.
type Workload struct {
	Cfg     Config
	Streets *rtree.Tree
	Hydro   *rtree.Tree
	NLeft   int
	NRight  int

	oracleOnce sync.Once
	oracleErr  error
	oracle     []float64 // oracle[i] = distance of the (i+1)-th nearest pair
}

var (
	workloadMu    sync.Mutex
	workloadCache = map[string]*Workload{}
)

// Load builds (or returns a cached) workload for cfg. Workloads are
// cached per (scale, seed, buffer) since tree construction dominates
// harness start-up.
func Load(cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	key := fmt.Sprintf("%g/%d/%d", cfg.Scale, cfg.Seed, cfg.BufferBytes)
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloadCache[key]; ok {
		return w, nil
	}
	nStreets := int(float64(FullStreets) * cfg.Scale)
	nHydro := int(float64(FullHydro) * cfg.Scale)
	if nStreets < 10 {
		nStreets = 10
	}
	if nHydro < 10 {
		nHydro = 10
	}
	streets, err := buildTree(datagen.TigerStreets(cfg.Seed, nStreets), cfg.BufferBytes)
	if err != nil {
		return nil, fmt.Errorf("experiments: build streets: %w", err)
	}
	hydro, err := buildTree(datagen.TigerHydro(cfg.Seed+1, nHydro), cfg.BufferBytes)
	if err != nil {
		return nil, fmt.Errorf("experiments: build hydro: %w", err)
	}
	w := &Workload{Cfg: cfg, Streets: streets, Hydro: hydro, NLeft: nStreets, NRight: nHydro}
	workloadCache[key] = w
	return w, nil
}

func buildTree(items []rtree.Item, bufferBytes int) (*rtree.Tree, error) {
	b, err := rtree.NewBuilderForPageSize(storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	b.BulkLoad(items)
	return b.Pack(storage.NewMemStore(storage.DefaultPageSize), bufferBytes)
}

// Dmax returns the real distance of the k-th nearest pair — the
// oracle the paper grants SJ-SORT and uses to parameterize Figures 14
// and 15. Computed once per workload with B-KDJ at the largest k.
func (w *Workload) Dmax(k int) (float64, error) {
	w.oracleOnce.Do(func() {
		maxK := scaleK(100000, w.Cfg.Scale)
		res, err := join.BKDJ(w.Streets, w.Hydro, maxK, join.Options{
			QueueMemBytes: 64 << 20, // oracle run: plenty of memory
		})
		if err != nil {
			w.oracleErr = err
			return
		}
		w.oracle = make([]float64, len(res))
		for i, r := range res {
			w.oracle[i] = r.Dist
		}
	})
	if w.oracleErr != nil {
		return 0, w.oracleErr
	}
	if k <= 0 || len(w.oracle) == 0 {
		return 0, fmt.Errorf("experiments: no oracle distance for k=%d", k)
	}
	if k > len(w.oracle) {
		k = len(w.oracle)
	}
	return w.oracle[k-1], nil
}

// ColdStart clears both trees' buffer pools so a measured run begins
// with cold caches — exposed for harness modes that drive the join
// entry points directly (e.g. cmd/distjoin-bench's traced query).
func (w *Workload) ColdStart() error { return w.coldStart() }

// coldStart clears both trees' buffer pools so each measured run
// begins with cold caches, as the paper's direct-I/O setup ensured.
func (w *Workload) coldStart() error {
	if err := w.Streets.Pool().Invalidate(); err != nil {
		return err
	}
	return w.Hydro.Pool().Invalidate()
}

// Algo identifies one algorithm in the harness output.
type Algo string

// Algorithm identifiers used across experiment tables.
const (
	AlgoHSKDJ  Algo = "HS-KDJ"
	AlgoBKDJ   Algo = "B-KDJ"
	AlgoAMKDJ  Algo = "AM-KDJ"
	AlgoSJSort Algo = "SJ-SORT"
	AlgoHSIDJ  Algo = "HS-IDJ"
	AlgoAMIDJ  Algo = "AM-IDJ"
)

// RunKDJ executes one cold k-distance-join query and returns its
// collected metrics.
func (w *Workload) RunKDJ(algo Algo, k int, opts join.Options) (*metrics.Collector, error) {
	var dmax float64
	if algo == AlgoSJSort {
		// Resolve the oracle before the cold start: the lazy oracle
		// run would otherwise warm the buffers mid-measurement.
		var err error
		if dmax, err = w.Dmax(k); err != nil {
			return nil, err
		}
	}
	if err := w.coldStart(); err != nil {
		return nil, err
	}
	mc := &metrics.Collector{}
	opts.Metrics = mc
	if opts.QueueMemBytes == 0 {
		opts.QueueMemBytes = w.Cfg.QueueMemBytes
	}
	var err error
	switch algo {
	case AlgoHSKDJ:
		_, err = join.HSKDJ(w.Streets, w.Hydro, k, opts)
	case AlgoBKDJ:
		_, err = join.BKDJ(w.Streets, w.Hydro, k, opts)
	case AlgoAMKDJ:
		_, err = join.AMKDJ(w.Streets, w.Hydro, k, opts)
	case AlgoSJSort:
		_, err = join.SJSort(w.Streets, w.Hydro, k, dmax, opts)
	default:
		err = fmt.Errorf("experiments: unknown KDJ algorithm %q", algo)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s k=%d: %w", algo, k, err)
	}
	return mc, nil
}

// RunWithin executes one cold within-distance join at the given
// threshold and returns its collected metrics. The fixed cutoff makes
// this the canonical batch-kernel workload: every leaf sweep refines
// candidates through the struct-of-arrays distance kernels rather than
// the scalar entry-at-a-time loop, so this entry isolates the kernel
// hot path from queue and compensation machinery.
func (w *Workload) RunWithin(maxDist float64, opts join.Options) (*metrics.Collector, error) {
	if err := w.coldStart(); err != nil {
		return nil, err
	}
	mc := &metrics.Collector{}
	opts.Metrics = mc
	if opts.QueueMemBytes == 0 {
		opts.QueueMemBytes = w.Cfg.QueueMemBytes
	}
	err := join.WithinJoin(w.Streets, w.Hydro, maxDist, opts, func(join.Result) bool {
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: WITHIN d=%g: %w", maxDist, err)
	}
	return mc, nil
}

// RunIDJ executes one cold incremental join pulling k results and
// returns its collected metrics.
func (w *Workload) RunIDJ(algo Algo, k int, opts join.Options) (*metrics.Collector, error) {
	if err := w.coldStart(); err != nil {
		return nil, err
	}
	mc := &metrics.Collector{}
	opts.Metrics = mc
	if opts.QueueMemBytes == 0 {
		opts.QueueMemBytes = w.Cfg.QueueMemBytes
	}
	mc.Start()
	defer mc.Finish()
	it, err := w.startIDJ(algo, opts)
	if err == nil {
		for i := 0; i < k; i++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		err = it.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s k=%d: %w", algo, k, err)
	}
	return mc, nil
}

// startIDJ opens the named incremental join on the workload's trees.
func (w *Workload) startIDJ(algo Algo, opts join.Options) (*join.Iterator, error) {
	switch algo {
	case AlgoHSIDJ:
		return join.HSIDJ(w.Streets, w.Hydro, opts)
	case AlgoAMIDJ:
		return join.AMIDJ(w.Streets, w.Hydro, opts)
	default:
		return nil, fmt.Errorf("experiments: unknown IDJ algorithm %q", algo)
	}
}
