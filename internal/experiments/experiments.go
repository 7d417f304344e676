package experiments

import (
	"fmt"
	"slices"

	"distjoin/internal/datagen"
	"distjoin/internal/estimate"
	"distjoin/internal/join"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// Experiment is one row of the evaluation: the ID `distjoin-bench -exp`
// accepts and the function that produces its tables.
type Experiment struct {
	ID  string
	run func(*Workload) ([]*Table, error)
}

// Experiments is the evaluation, in the order "all" runs and prints it:
// the paper's figures and tables first (§5), then the ablations beyond
// them (DESIGN.md A1–A6) and the §5.6 queue-size observation. A new
// experiment is one row here; cmd/distjoin-bench builds its -exp help
// from the IDs.
var Experiments = []Experiment{
	{"fig10", fig10},
	{"table2", table2},
	{"fig11", fig11},
	{"fig12", fig12},
	{"fig13", fig13},
	{"fig14", fig14},
	{"fig15", fig15},
	{"ablation-sweep", ablationSweep},
	{"ablation-dq", ablationDQ},
	{"ablation-correction", ablationCorrection},
	{"ablation-queue", ablationQueue},
	{"ablation-estimator", ablationEstimator},
	{"ablation-split", ablationSplit},
	{"queue-sizes", queueSizes},
}

// Run runs the experiment named id, or every experiment in table order
// for "all", on cfg's workload, which is loaded once.
func Run(id string, cfg Config) ([]*Table, error) {
	sel := Experiments
	if id != "all" {
		i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		sel = Experiments[i : i+1]
	}
	w, err := Load(cfg)
	if err != nil {
		return nil, err
	}
	var out []*Table
	for _, e := range sel {
		tabs, err := e.run(w)
		if err != nil {
			return nil, err
		}
		out = append(out, tabs...)
	}
	return out, nil
}

// All runs every experiment in paper order.
func All(cfg Config) ([]*Table, error) { return Run("all", cfg) }

// fig10 reproduces Figure 10 — k-distance join performance vs k:
// (a) number of distance computations, (b) number of queue insertions,
// (c) response time — for HS-KDJ, B-KDJ, AM-KDJ, and SJ-SORT.
func fig10(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	algos := []Algo{AlgoHSKDJ, AlgoBKDJ, AlgoAMKDJ, AlgoSJSort}
	tabs := newMetricTables("fig10", "k-distance join vs k", "k", algos, cfg)
	for _, k := range cfg.KSeries() {
		row := make([]*metrics.Collector, len(algos))
		for i, a := range algos {
			mc, err := w.RunKDJ(a, k, join.Options{})
			if err != nil {
				return nil, err
			}
			row[i] = mc
		}
		addMetricRows(tabs, fmtInt(int64(k)), row)
	}
	return tabs, nil
}

// table2 reproduces Table 2 — the number of R-tree nodes fetched from
// disk per algorithm and k, with the parenthesized "no buffer" number
// (every logical access physical) alongside.
func table2(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	algos := []Algo{AlgoHSKDJ, AlgoBKDJ, AlgoAMKDJ, AlgoSJSort}
	t := &Table{
		ID:      "table2",
		Title:   "R-tree node accesses for k-distance joins (buffered, parenthesized = unbuffered)",
		Columns: []string{"algorithm"},
		Notes:   scaleNotes(cfg),
	}
	ks := cfg.Table2KSeries()
	for _, k := range ks {
		t.Columns = append(t.Columns, fmt.Sprintf("k=%d", k))
	}
	for _, a := range algos {
		row := []string{string(a)}
		for _, k := range ks {
			mc, err := w.RunKDJ(a, k, join.Options{})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d (%d)", mc.NodeAccessesPhysical, mc.NodeAccessesLogical))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// fig11 reproduces Figure 11 — the improvement from the optimized
// plane sweep: axis and real distance computations of B-KDJ with the
// sweeping axis/direction selection on vs fixed (x-axis, forward).
func fig11(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	t := &Table{
		ID:    "fig11",
		Title: "B-KDJ distance computations: optimized vs fixed plane sweep",
		Columns: []string{"k",
			"axis(opt)", "real(opt)", "total(opt)",
			"axis(fixed)", "real(fixed)", "total(fixed)", "saved%"},
		Notes: scaleNotes(cfg),
	}
	fixed := join.FixedSweep
	for _, k := range cfg.KSeries() {
		on, err := w.RunKDJ(AlgoBKDJ, k, join.Options{})
		if err != nil {
			return nil, err
		}
		off, err := w.RunKDJ(AlgoBKDJ, k, join.Options{Sweep: &fixed})
		if err != nil {
			return nil, err
		}
		saved := 0.0
		if off.DistCalcs() > 0 {
			saved = 100 * (1 - float64(on.DistCalcs())/float64(off.DistCalcs()))
		}
		t.AddRow(fmtInt(int64(k)),
			fmtInt(on.AxisDistCalcs), fmtInt(on.RealDistCalcs), fmtInt(on.DistCalcs()),
			fmtInt(off.AxisDistCalcs), fmtInt(off.RealDistCalcs), fmtInt(off.DistCalcs()),
			fmt.Sprintf("%.1f", saved))
	}
	return []*Table{t}, nil
}

// fig12 reproduces Figure 12 — incremental distance join performance
// vs k for HS-IDJ and AM-IDJ: distance computations, queue insertions,
// response time.
func fig12(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	algos := []Algo{AlgoHSIDJ, AlgoAMIDJ}
	tabs := newMetricTables("fig12", "incremental distance join vs k", "k", algos, cfg)
	for _, k := range cfg.KSeries() {
		row := make([]*metrics.Collector, len(algos))
		for i, a := range algos {
			opts := join.Options{}
			if a == AlgoAMIDJ {
				opts.BatchK = k // one estimated stage targets the pull size
			}
			mc, err := w.RunIDJ(a, k, opts)
			if err != nil {
				return nil, err
			}
			row[i] = mc
		}
		addMetricRows(tabs, fmtInt(int64(k)), row)
	}
	return tabs, nil
}

// fig13 reproduces Figure 13 — response time vs memory size (the
// in-memory main-queue portion and R-tree buffer are both set to each
// size), at the largest k of the series.
func fig13(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	algos := []Algo{AlgoHSKDJ, AlgoBKDJ, AlgoAMKDJ, AlgoSJSort}
	t := &Table{
		ID:      "fig13",
		Title:   "response time (s) vs memory size, k = largest of series",
		Columns: []string{"memKB"},
		Notes:   scaleNotes(cfg),
	}
	for _, a := range algos {
		t.Columns = append(t.Columns, string(a))
	}
	k := cfg.KSeries()[len(cfg.KSeries())-1]
	// Memory sizes scale with the workload so the constrained regime
	// of the paper's 64 KB..1 MB sweep is preserved.
	for _, kb := range []int{64, 128, 256, 512, 1024} {
		memBytes := int(float64(kb*1024) * cfg.Scale * 20) // 512 KB at scale≈0.05 ≈ paper 512 KB/full
		if memBytes < 4096 {
			memBytes = 4096
		}
		w.Streets.ResizeBuffer(memBytes)
		w.Hydro.ResizeBuffer(memBytes)
		row := []string{fmtInt(int64(kb))}
		for _, a := range algos {
			mc, err := w.RunKDJ(a, k, join.Options{QueueMemBytes: memBytes})
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(mc.ResponseTime()))
		}
		t.AddRow(row...)
	}
	// Restore the default buffer size for subsequent experiments.
	w.Streets.ResizeBuffer(cfg.BufferBytes)
	w.Hydro.ResizeBuffer(cfg.BufferBytes)
	return []*Table{t}, nil
}

// fig14 reproduces Figure 14 — AM-KDJ performance vs the accuracy of
// the eDmax estimate, sweeping eDmax from 0.1x to 10x the real Dmax at
// the largest k; B-KDJ and HS-KDJ appear as flat references.
func fig14(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	k := cfg.KSeries()[len(cfg.KSeries())-1]
	dmax, err := w.Dmax(k)
	if err != nil {
		return nil, err
	}
	bk, err := w.RunKDJ(AlgoBKDJ, k, join.Options{})
	if err != nil {
		return nil, err
	}
	hs, err := w.RunKDJ(AlgoHSKDJ, k, join.Options{})
	if err != nil {
		return nil, err
	}

	mk := func(suffix, what string) *Table {
		return &Table{
			ID:      "fig14" + suffix,
			Title:   fmt.Sprintf("AM-KDJ %s vs eDmax accuracy (k=%d)", what, k),
			Columns: []string{"eDmax/Dmax", "AM-KDJ", "B-KDJ", "HS-KDJ", "comp.stages"},
			Notes:   scaleNotes(cfg),
		}
	}
	ta, tb, tc := mk("a", "distance computations"), mk("b", "queue insertions"), mk("c", "response time (s)")
	for _, f := range []float64{0.1, 0.2, 0.5, 1, 2, 5, 10} {
		mc, err := w.RunKDJ(AlgoAMKDJ, k, join.Options{EDmax: dmax * f})
		if err != nil {
			return nil, err
		}
		x := fmtF(f)
		cs := fmtInt(mc.CompensationStages)
		ta.AddRow(x, fmtInt(mc.DistCalcs()), fmtInt(bk.DistCalcs()), fmtInt(hs.DistCalcs()), cs)
		tb.AddRow(x, fmtInt(mc.QueueInserts()), fmtInt(bk.QueueInserts()), fmtInt(hs.QueueInserts()), cs)
		tc.AddRow(x, fmtDur(mc.ResponseTime()), fmtDur(bk.ResponseTime()), fmtDur(hs.ResponseTime()), cs)
	}
	return []*Table{ta, tb, tc}, nil
}

// fig15 reproduces Figure 15 — stepwise incremental execution: users
// repeatedly request the next batch of nearest pairs until ten batches
// are delivered. HS-IDJ and AM-IDJ run once each (cumulative time
// recorded at each checkpoint); SJ-SORT restarts per step with the
// oracle Dmax and its measurements accumulate, as in the paper.
func fig15(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	batch := scaleK(10000, cfg.Scale)
	const steps = 10
	t := &Table{
		ID:      "fig15",
		Title:   fmt.Sprintf("stepwise incremental execution, %d pairs per step (s, cumulative)", batch),
		Columns: []string{"k", "HS-IDJ", "AM-IDJ(est)", "AM-IDJ(real)", "SJ-SORT(cum)"},
		Notes:   scaleNotes(cfg),
	}

	// One incremental run, checkpointed per batch.
	checkpointed := func(algo Algo, opts join.Options) ([]metrics.Collector, error) {
		if err := w.coldStart(); err != nil {
			return nil, err
		}
		mc := &metrics.Collector{}
		opts.Metrics = mc
		opts.QueueMemBytes = cfg.QueueMemBytes
		it, err := w.startIDJ(algo, opts)
		if err != nil {
			return nil, err
		}
		mc.Start()
		snaps := make([]metrics.Collector, 0, steps)
		for s := 0; s < steps; s++ {
			for i := 0; i < batch; i++ {
				if _, ok := it.Next(); !ok {
					if err := it.Err(); err != nil {
						return nil, err
					}
					break // join exhausted; later checkpoints repeat
				}
			}
			mc.Finish() // cumulative wall time since Start
			snaps = append(snaps, *mc)
		}
		return snaps, nil
	}

	hsSnaps, err := checkpointed(AlgoHSIDJ, join.Options{})
	if err != nil {
		return nil, err
	}
	estSnaps, err := checkpointed(AlgoAMIDJ, join.Options{BatchK: batch})
	if err != nil {
		return nil, err
	}
	oracleHook := func(k, produced int, lastDist float64) float64 {
		d, err := w.Dmax(k)
		if err != nil {
			return lastDist * 2
		}
		return d
	}
	realSnaps, err := checkpointed(AlgoAMIDJ, join.Options{BatchK: batch, EDmaxForK: oracleHook})
	if err != nil {
		return nil, err
	}

	var sjCum metrics.Collector
	for s := 1; s <= steps; s++ {
		k := s * batch
		mc, err := w.RunKDJ(AlgoSJSort, k, join.Options{})
		if err != nil {
			return nil, err
		}
		sjCum.Add(mc)
		t.AddRow(fmtInt(int64(k)),
			fmtDur(hsSnaps[s-1].ResponseTime()),
			fmtDur(estSnaps[s-1].ResponseTime()),
			fmtDur(realSnaps[s-1].ResponseTime()),
			fmtDur(sjCum.ResponseTime()))
	}
	return []*Table{t}, nil
}

// newMetricTables builds the (a) distance computations, (b) queue
// insertions, (c) response time table triple used by Figures 10 and 12.
func newMetricTables(id, title, xlabel string, algos []Algo, cfg Config) []*Table {
	mk := func(suffix, what string) *Table {
		t := &Table{
			ID:      id + suffix,
			Title:   title + " — " + what,
			Columns: []string{xlabel},
			Notes:   scaleNotes(cfg),
		}
		for _, a := range algos {
			t.Columns = append(t.Columns, string(a))
		}
		return t
	}
	return []*Table{
		mk("a", "number of distance computations"),
		mk("b", "number of queue insertions"),
		mk("c", "response time (s)"),
	}
}

// addMetricRows appends one x value's measurements to a table triple.
func addMetricRows(tabs []*Table, x string, row []*metrics.Collector) {
	a := []string{x}
	b := []string{x}
	c := []string{x}
	for _, mc := range row {
		a = append(a, fmtInt(mc.DistCalcs()))
		b = append(b, fmtInt(mc.QueueInserts()))
		c = append(c, fmtDur(mc.ResponseTime()))
	}
	tabs[0].AddRow(a...)
	tabs[1].AddRow(b...)
	tabs[2].AddRow(c...)
}

func scaleNotes(cfg Config) []string {
	return []string{fmt.Sprintf(
		"scale=%g: %d streets x %d hydro objects (paper: %d x %d); k series scaled to match k/N ratios",
		cfg.Scale,
		int(float64(FullStreets)*cfg.Scale), int(float64(FullHydro)*cfg.Scale),
		FullStreets, FullHydro)}
}

// Ablations beyond the paper's figures (DESIGN.md A1–A4).

// ablationSweep (A1) isolates axis selection vs direction selection.
func ablationSweep(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	k := cfg.KSeries()[len(cfg.KSeries())-1]
	t := &Table{
		ID:      "ablation-sweep",
		Title:   fmt.Sprintf("B-KDJ sweep policy ablation (k=%d)", k),
		Columns: []string{"policy", "axis calcs", "real calcs", "total", "queue ins", "resp (s)"},
		Notes:   scaleNotes(cfg),
	}
	policies := []struct {
		name string
		sp   join.SweepPolicy
	}{
		{"neither (fixed x, forward)", join.FixedSweep},
		{"axis only", join.SweepPolicy{SelectAxis: true}},
		{"direction only", join.SweepPolicy{SelectDirection: true}},
		{"both (paper)", join.OptimizedSweep},
	}
	for _, p := range policies {
		sp := p.sp
		mc, err := w.RunKDJ(AlgoBKDJ, k, join.Options{Sweep: &sp})
		if err != nil {
			return nil, err
		}
		t.AddRow(p.name, fmtInt(mc.AxisDistCalcs), fmtInt(mc.RealDistCalcs),
			fmtInt(mc.DistCalcs()), fmtInt(mc.QueueInserts()), fmtDur(mc.ResponseTime()))
	}
	return []*Table{t}, nil
}

// ablationDQ (A2) compares the distance-queue feed policies of
// footnote 1: object pairs only (the paper's choice) vs all pairs with
// retired upper bounds (Hjaltason & Samet's scheme).
func ablationDQ(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	t := &Table{
		ID:      "ablation-dq",
		Title:   "B-KDJ distance-queue policy ablation",
		Columns: []string{"k", "dist(obj-only)", "dist(all)", "qins(obj-only)", "qins(all)", "resp(obj-only)", "resp(all)"},
		Notes:   scaleNotes(cfg),
	}
	for _, k := range cfg.KSeries() {
		objOnly, err := w.RunKDJ(AlgoBKDJ, k, join.Options{DistanceQueue: join.ObjectPairsOnly})
		if err != nil {
			return nil, err
		}
		all, err := w.RunKDJ(AlgoBKDJ, k, join.Options{DistanceQueue: join.AllPairs})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtInt(int64(k)),
			fmtInt(objOnly.DistCalcs()), fmtInt(all.DistCalcs()),
			fmtInt(objOnly.QueueInserts()), fmtInt(all.QueueInserts()),
			fmtDur(objOnly.ResponseTime()), fmtDur(all.ResponseTime()))
	}
	return []*Table{t}, nil
}

// ablationCorrection (A3) compares the eDmax correction combinations
// of §4.3.2 for AM-IDJ.
func ablationCorrection(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	k := cfg.KSeries()[len(cfg.KSeries())-1]
	batch := k / 10
	if batch < 1 {
		batch = 1
	}
	t := &Table{
		ID:      "ablation-correction",
		Title:   fmt.Sprintf("AM-IDJ eDmax correction ablation (k=%d, batch=%d)", k, batch),
		Columns: []string{"mode", "dist calcs", "queue ins", "comp stages", "resp (s)"},
		Notes:   scaleNotes(cfg),
	}
	for _, mode := range []estimate.Mode{
		estimate.Aggressive, estimate.Conservative,
		estimate.ArithmeticOnly, estimate.GeometricOnly,
	} {
		mc, err := w.RunIDJ(AlgoAMIDJ, k, join.Options{BatchK: batch, Correction: mode})
		if err != nil {
			return nil, err
		}
		t.AddRow(mode.String(), fmtInt(mc.DistCalcs()), fmtInt(mc.QueueInserts()),
			fmtInt(mc.CompensationStages), fmtDur(mc.ResponseTime()))
	}
	return []*Table{t}, nil
}

// ablationQueue (A4) compares the §4.4 model-based hybrid queue
// boundaries against pure overflow splitting, under tight memory.
func ablationQueue(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	k := cfg.KSeries()[len(cfg.KSeries())-1]
	t := &Table{
		ID:      "ablation-queue",
		Title:   fmt.Sprintf("hybrid queue boundary model ablation (B-KDJ, k=%d)", k),
		Columns: []string{"queue memKB", "qpages(model)", "qpages(splits)", "resp(model)", "resp(splits)"},
		Notes:   scaleNotes(cfg),
	}
	for _, kb := range []int{4, 16, 64, 256} {
		mem := kb * 1024
		model, err := w.RunKDJ(AlgoBKDJ, k, join.Options{QueueMemBytes: mem})
		if err != nil {
			return nil, err
		}
		splits, err := w.RunKDJ(AlgoBKDJ, k, join.Options{QueueMemBytes: mem, DisableQueueModel: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtInt(int64(kb)),
			fmtInt(model.QueuePageReads+model.QueuePageWrites),
			fmtInt(splits.QueuePageReads+splits.QueuePageWrites),
			fmtDur(model.ResponseTime()), fmtDur(splits.ResponseTime()))
	}
	return []*Table{t}, nil
}

// ablationEstimator (A5) compares the uniform eDmax model (Eq. 3)
// against the grid-histogram estimator (the §6 future-work strategy)
// on the skewed TIGER-like workload: estimate accuracy, compensation
// stages, and total work for AM-KDJ and AM-IDJ.
func ablationEstimator(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	k := cfg.KSeries()[len(cfg.KSeries())-1]
	dmax, err := w.Dmax(k)
	if err != nil {
		return nil, err
	}
	hist, err := join.NewHistogramEstimator(w.Streets, w.Hydro, 0)
	if err != nil {
		return nil, err
	}
	uni, err := estimate.NewModel(w.Streets.Bounds(), w.Streets.Size(),
		w.Hydro.Bounds(), w.Hydro.Size())
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "ablation-estimator",
		Title: fmt.Sprintf("eDmax estimator ablation (k=%d, real Dmax=%.4g)", k, dmax),
		Columns: []string{"estimator", "est/real", "KDJ dist", "KDJ comp",
			"IDJ dist", "IDJ qins", "IDJ stages", "IDJ resp (s)"},
		Notes: scaleNotes(cfg),
	}
	batch := k / 10
	if batch < 1 {
		batch = 1
	}
	for _, row := range []struct {
		name string
		est  estimate.Estimator
	}{
		{"uniform (Eq. 3)", nil}, // nil selects the default model
		{"histogram (§6)", hist},
	} {
		var initial float64
		if row.est != nil {
			initial = row.est.Initial(k)
		} else {
			initial = uni.Initial(k)
		}
		kdj, err := w.RunKDJ(AlgoAMKDJ, k, join.Options{Estimator: row.est})
		if err != nil {
			return nil, err
		}
		idj, err := w.RunIDJ(AlgoAMIDJ, k, join.Options{Estimator: row.est, BatchK: batch})
		if err != nil {
			return nil, err
		}
		ratio := "inf"
		if dmax > 0 {
			ratio = fmt.Sprintf("%.2f", initial/dmax)
		}
		t.AddRow(row.name, ratio,
			fmtInt(kdj.DistCalcs()), fmtInt(kdj.CompensationStages),
			fmtInt(idj.DistCalcs()), fmtInt(idj.QueueInserts()),
			fmtInt(idj.CompensationStages), fmtDur(idj.ResponseTime()))
	}
	return []*Table{t}, nil
}

// queueSizes reproduces the §5.6 queue-size observation: the
// compensation queue stays orders of magnitude smaller than the main
// queue ("less than 0.5 percent" in the paper's runs). Measured per k
// for AM-KDJ with a deliberately underestimated eDmax so the
// compensation machinery is actually exercised.
func queueSizes(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	t := &Table{
		ID:      "queue-sizes",
		Title:   "AM-KDJ queue populations (eDmax = 0.5 x real Dmax)",
		Columns: []string{"k", "main peak", "main inserts", "comp entries", "comp/main %"},
		Notes:   scaleNotes(cfg),
	}
	for _, k := range cfg.KSeries() {
		dmax, err := w.Dmax(k)
		if err != nil {
			return nil, err
		}
		eDmax := dmax * 0.5
		if eDmax == 0 {
			eDmax = dmax
		}
		mc, err := w.RunKDJ(AlgoAMKDJ, k, join.Options{EDmax: eDmax})
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if mc.MainQueuePeak > 0 {
			ratio = 100 * float64(mc.CompQueueInserts) / float64(mc.MainQueuePeak)
		}
		t.AddRow(fmtInt(int64(k)), fmtInt(mc.MainQueuePeak), fmtInt(mc.MainQueueInserts),
			fmtInt(mc.CompQueueInserts), fmt.Sprintf("%.2f", ratio))
	}
	return []*Table{t}, nil
}

// ablationSplit (A6) studies how index quality feeds join cost: trees
// are built by one-at-a-time insertion under the R* split (the paper's
// setting), Guttman's quadratic split, and Guttman's linear split, and
// B-KDJ runs over each. Bulk loading is bypassed on purpose — split
// quality only matters for dynamically built trees.
func ablationSplit(w *Workload) ([]*Table, error) {
	cfg := w.Cfg
	// Insertion-built trees are expensive; use a reduced slice of the
	// workload regardless of the configured scale.
	nStreets := int(float64(FullStreets) * cfg.Scale / 2)
	nHydro := int(float64(FullHydro) * cfg.Scale / 2)
	if nStreets > 40000 {
		nStreets = 40000
	}
	if nHydro > 12000 {
		nHydro = 12000
	}
	if nStreets < 100 {
		nStreets = 100
	}
	if nHydro < 100 {
		nHydro = 100
	}
	streets := datagen.TigerStreets(cfg.Seed, nStreets)
	hydro := datagen.TigerHydro(cfg.Seed+1, nHydro)
	k := scaleK(100000, cfg.Scale) / 2
	if k < 1 {
		k = 1
	}

	t := &Table{
		ID:    "ablation-split",
		Title: fmt.Sprintf("R-tree split policy vs B-KDJ cost (insertion-built, %d x %d, k=%d)", nStreets, nHydro, k),
		Columns: []string{"split", "leaf overlap", "nodes",
			"dist calcs", "node reads (unbuf)", "resp (s)"},
		Notes: scaleNotes(cfg),
	}
	for _, p := range []rtree.SplitPolicy{rtree.SplitRStar, rtree.SplitQuadratic, rtree.SplitLinear} {
		build := func(items []rtree.Item) (*rtree.Tree, float64, error) {
			b, err := rtree.NewBuilderForPageSize(storage.DefaultPageSize)
			if err != nil {
				return nil, 0, err
			}
			b.SetSplitPolicy(p)
			for _, it := range items {
				b.Insert(it.Rect, it.Obj)
			}
			overlap := b.TotalLeafOverlap()
			tree, err := b.Pack(storage.NewMemStore(storage.DefaultPageSize), cfg.BufferBytes)
			return tree, overlap, err
		}
		left, ovL, err := build(streets)
		if err != nil {
			return nil, err
		}
		right, ovR, err := build(hydro)
		if err != nil {
			return nil, err
		}
		mc := &metrics.Collector{}
		if _, err := join.BKDJ(left, right, k, join.Options{
			Metrics:       mc,
			QueueMemBytes: cfg.QueueMemBytes,
		}); err != nil {
			return nil, err
		}
		t.AddRow(p.String(), fmtF(ovL+ovR), fmtInt(int64(left.NumNodes()+right.NumNodes())),
			fmtInt(mc.DistCalcs()), fmtInt(mc.NodeAccessesLogical), fmtDur(mc.ResponseTime()))
	}
	return []*Table{t}, nil
}
