package distjoin

// Benchmarks regenerating the paper's evaluation artifacts, one bench
// family per figure/table (DESIGN.md per-experiment index). Each runs
// the corresponding experiment at a reduced scale and reports the
// paper's metrics (distance computations, queue insertions, node
// accesses) alongside wall time:
//
//	go test -bench=. -benchmem
//
// For the full-resolution tables use cmd/distjoin-bench, which prints
// the same rows/series the paper reports at any scale.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/experiments"
	"distjoin/internal/join"
	"distjoin/internal/rtree"
)

// benchConfig is deliberately small so the whole suite runs in tens of
// seconds; cmd/distjoin-bench exposes the larger scales.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.005, Seed: 1}
}

func loadBenchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	w, err := experiments.Load(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func reportKDJ(b *testing.B, w *experiments.Workload, algo experiments.Algo, k int, opts join.Options) {
	b.Helper()
	var dist, qins, nodes int64
	for i := 0; i < b.N; i++ {
		mc, err := w.RunKDJ(algo, k, opts)
		if err != nil {
			b.Fatal(err)
		}
		dist, qins, nodes = mc.DistCalcs(), mc.QueueInserts(), mc.NodeAccessesPhysical
	}
	b.ReportMetric(float64(dist), "distcalcs")
	b.ReportMetric(float64(qins), "queueins")
	b.ReportMetric(float64(nodes), "nodeio")
}

// BenchmarkFig10_KDJ regenerates Figure 10: k-distance join cost vs k
// for HS-KDJ, B-KDJ, AM-KDJ, and SJ-SORT.
func BenchmarkFig10_KDJ(b *testing.B) {
	w := loadBenchWorkload(b)
	for _, algo := range []experiments.Algo{
		experiments.AlgoHSKDJ, experiments.AlgoBKDJ,
		experiments.AlgoAMKDJ, experiments.AlgoSJSort,
	} {
		for _, k := range benchConfig().KSeries() {
			b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
				reportKDJ(b, w, algo, k, join.Options{})
			})
		}
	}
}

// BenchmarkTable2_NodeAccesses regenerates Table 2: R-tree node
// accesses per algorithm (the reported metric is physical reads with
// the 512 KB buffer; logical equals the unbuffered column).
func BenchmarkTable2_NodeAccesses(b *testing.B) {
	w := loadBenchWorkload(b)
	ks := benchConfig().Table2KSeries()
	k := ks[len(ks)-1]
	for _, algo := range []experiments.Algo{
		experiments.AlgoHSKDJ, experiments.AlgoBKDJ,
		experiments.AlgoAMKDJ, experiments.AlgoSJSort,
	} {
		b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
			var phys, logical int64
			for i := 0; i < b.N; i++ {
				mc, err := w.RunKDJ(algo, k, join.Options{})
				if err != nil {
					b.Fatal(err)
				}
				phys, logical = mc.NodeAccessesPhysical, mc.NodeAccessesLogical
			}
			b.ReportMetric(float64(phys), "nodeio")
			b.ReportMetric(float64(logical), "nodeio-unbuf")
		})
	}
}

// BenchmarkFig11_SweepOptimization regenerates Figure 11: B-KDJ with
// the optimized plane sweep vs the fixed x-axis forward sweep.
func BenchmarkFig11_SweepOptimization(b *testing.B) {
	w := loadBenchWorkload(b)
	ks := benchConfig().KSeries()
	k := ks[len(ks)-1]
	b.Run("optimized", func(b *testing.B) {
		reportKDJ(b, w, experiments.AlgoBKDJ, k, join.Options{})
	})
	b.Run("fixed", func(b *testing.B) {
		fixed := join.Ablation{FixedAxis: true, FixedDirection: true}
		reportKDJ(b, w, experiments.AlgoBKDJ, k, join.Options{Ablation: fixed})
	})
}

// BenchmarkFig12_IDJ regenerates Figure 12: incremental distance join
// cost vs k for HS-IDJ and AM-IDJ.
func BenchmarkFig12_IDJ(b *testing.B) {
	w := loadBenchWorkload(b)
	for _, algo := range []experiments.Algo{experiments.AlgoHSIDJ, experiments.AlgoAMIDJ} {
		for _, k := range benchConfig().KSeries() {
			b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
				var dist, qins int64
				for i := 0; i < b.N; i++ {
					mc, err := w.RunIDJ(algo, k, join.Options{})
					if err != nil {
						b.Fatal(err)
					}
					dist, qins = mc.DistCalcs(), mc.QueueInserts()
				}
				b.ReportMetric(float64(dist), "distcalcs")
				b.ReportMetric(float64(qins), "queueins")
			})
		}
	}
}

// BenchmarkFig13_Memory regenerates Figure 13: response vs the memory
// granted to the main queue and R-tree buffers.
func BenchmarkFig13_Memory(b *testing.B) {
	w := loadBenchWorkload(b)
	ks := benchConfig().KSeries()
	k := ks[len(ks)-1]
	for _, kb := range []int{16, 64, 256} {
		mem := kb * 1024
		for _, algo := range []experiments.Algo{
			experiments.AlgoHSKDJ, experiments.AlgoBKDJ, experiments.AlgoAMKDJ,
		} {
			b.Run(fmt.Sprintf("mem=%dKB/%s", kb, algo), func(b *testing.B) {
				w.Streets.ResizeBuffer(mem)
				w.Hydro.ResizeBuffer(mem)
				defer func() {
					w.Streets.ResizeBuffer(512 * 1024)
					w.Hydro.ResizeBuffer(512 * 1024)
				}()
				reportKDJ(b, w, algo, k, join.Options{QueueMemBytes: mem})
			})
		}
	}
}

// BenchmarkFig14_EDmax regenerates Figure 14: AM-KDJ cost vs the
// accuracy of the eDmax estimate.
func BenchmarkFig14_EDmax(b *testing.B) {
	w := loadBenchWorkload(b)
	ks := benchConfig().KSeries()
	k := ks[len(ks)-1]
	dmax, err := w.Dmax(k)
	if err != nil {
		b.Fatal(err)
	}
	if dmax == 0 {
		dmax = 1 // all-zero tail: factor sweep still exercises both stages
	}
	for _, f := range []float64{0.1, 0.5, 1, 2, 10} {
		b.Run(fmt.Sprintf("eDmax=%gx", f), func(b *testing.B) {
			reportKDJ(b, w, experiments.AlgoAMKDJ, k, join.Options{EDmax: dmax * f})
		})
	}
}

// BenchmarkFig15_Stepwise regenerates Figure 15: stepwise incremental
// execution, pulling ten batches from one incremental join.
func BenchmarkFig15_Stepwise(b *testing.B) {
	w := loadBenchWorkload(b)
	batch := benchConfig().KSeries()[2] // a mid-size batch
	for _, algo := range []experiments.Algo{experiments.AlgoHSIDJ, experiments.AlgoAMIDJ} {
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mc, err := w.RunIDJ(algo, 10*batch, join.Options{BatchK: batch})
				if err != nil {
					b.Fatal(err)
				}
				if mc.ResultsProduced == 0 {
					b.Fatal("no results produced")
				}
			}
		})
	}
}

// BenchmarkIndexBuild measures STR bulk loading plus page packing, the
// setup cost of every experiment.
func BenchmarkIndexBuild(b *testing.B) {
	rngObjs := make([]Object, 20000)
	for i := range rngObjs {
		x := float64(i%141) * 7
		y := float64(i/141) * 11
		rngObjs[i] = Object{ID: int64(i), Rect: NewRect(x, y, x+5, y+5)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewIndex(rngObjs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOperations measures the companion operations on a mid-size
// workload: self k-closest-pairs, all-nearest-neighbors, within join.
func BenchmarkOperations(b *testing.B) {
	objs := make([]Object, 20000)
	for i := range objs {
		x := float64((i * 2654435761) % 100000)
		y := float64((i * 40503) % 100000)
		objs[i] = Object{ID: int64(i), Rect: NewRect(x, y, x+10, y+10)}
	}
	idx, err := NewIndex(objs, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("KClosestPairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := KClosestPairs(idx, 100, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AllNearest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if err := AllNearest(idx, idx, nil, func(Pair) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WithinJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if err := WithinJoin(idx, idx, 25, nil, func(Pair) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// AM-KDJ at k = 10 000 on a uniform 50k x 50k workload.

var uniformBench struct {
	once        sync.Once
	left, right *Index
	err         error
}

func uniformBenchIndexes(b *testing.B) (*Index, *Index) {
	b.Helper()
	uniformBench.once.Do(func() {
		rng := rand.New(rand.NewSource(42))
		a := randObjects(rng, 50000, 100000, 30)
		c := randObjects(rng, 50000, 100000, 30)
		uniformBench.left, uniformBench.err = NewIndex(a, &IndexConfig{BufferBytes: 8 << 20})
		if uniformBench.err != nil {
			return
		}
		uniformBench.right, uniformBench.err = NewIndex(c, &IndexConfig{BufferBytes: 8 << 20})
	})
	if uniformBench.err != nil {
		b.Fatal(uniformBench.err)
	}
	return uniformBench.left, uniformBench.right
}

func BenchmarkAMKDJSerial(b *testing.B) {
	left, right := uniformBenchIndexes(b)
	const k = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := KDistanceJoin(left, right, k, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != k {
			b.Fatalf("got %d results, want %d", len(got), k)
		}
	}
}

// ---------------------------------------------------------------------
// AM-IDJ stage cost: 8 192 pairs at three stage sizes.

var tigerBench struct {
	once        sync.Once
	left, right *Index
	err         error
}

// tigerBenchIndexes builds the TIGER-like pair at the repository
// benchmark's size (the paper's × 0.1) with the default 512 KB pools,
// which is what distjoin-server serves.
func tigerBenchIndexes(b *testing.B) (*Index, *Index) {
	b.Helper()
	tigerBench.once.Do(func() {
		objects := func(items []rtree.Item) []Object {
			objs := make([]Object, len(items))
			for i, it := range items {
				objs[i] = Object{ID: it.Obj, Rect: it.Rect}
			}
			return objs
		}
		tigerBench.left, tigerBench.err = NewIndex(objects(datagen.TigerStreets(1, 63346)), nil)
		if tigerBench.err != nil {
			return
		}
		tigerBench.right, tigerBench.err = NewIndex(objects(datagen.TigerHydro(2, 18964)), nil)
	})
	if tigerBench.err != nil {
		b.Fatal(tigerBench.err)
	}
	return tigerBench.left, tigerBench.right
}

// BenchmarkIncrementalStages pulls 8 192 pairs through AM-IDJ at stage
// sizes 1 024 (DefaultBatchK), 4 096 and 8 192. Every stage after the
// first is a compensation stage that re-expands each live bookkept node
// pair, so the work follows the number of stages, not of pairs: these
// are the counts a cheaper stage in the engine (NOTES.md §5) has to
// beat.
func BenchmarkIncrementalStages(b *testing.B) {
	left, right := tigerBenchIndexes(b)
	const pull = 8192
	for _, batch := range []int{DefaultBatchK, 4096, 8192} {
		b.Run(fmt.Sprintf("BatchK=%d", batch), func(b *testing.B) {
			var st Stats
			for i := 0; i < b.N; i++ {
				st = Stats{}
				it, err := IncrementalJoin(left, right, &Options{BatchK: batch, Stats: &st})
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < pull; n++ {
					if _, ok := it.Next(); !ok {
						b.Fatalf("join ended after %d pairs: %v", n, it.Err())
					}
				}
				it.Close()
			}
			b.ReportMetric(float64(st.CompensationStages), "comp_stages/op")
			b.ReportMetric(float64(st.DistCalcs()), "dist_calcs/op")
			b.ReportMetric(float64(st.NodeAccessesLogical), "nodes/op")
		})
	}
}
