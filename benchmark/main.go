// Command benchmark is the repository's benchmark: five workloads
// driven from outside the system (the public facade for the library
// workloads, the real distjoin-server binary on loopback for the
// serving ones), end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run. BENCHMARK.json at the repository
// root names the workloads, the metrics and their bounds; README.md in
// this directory says why each was chosen.
//
//	bash benchmark/run.sh --workload topk-warm --seed 1 --seconds 12 --trace 0
//	go run -C benchmark . -workload all -repeat 2
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	root     string // repository root (the distjoin module)
	traceOut string // span file of a traced run

	// corruptDigest makes every verified digest wrong. Only tests set
	// it, to show that a wrong answer fails the command.
	corruptDigest bool
}

func (c config) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func (c config) warmup() time.Duration {
	return time.Duration(c.seconds * warmupShare * float64(time.Second))
}

func (c config) setups() int {
	if c.quick {
		return 1
	}
	return setupRepeats
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	Wrong     int
	Metrics   map[string]float64
	Notes     []string
}

func (r *report) correct() bool { return r.Wrong == 0 }

// resultLine is the last line of standard output, the form the driver
// reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namesAndUnits lists the metrics a run reports, in spec order.
func namesAndUnits(traced bool) (names, units []string) {
	if traced {
		for _, m := range perLayer {
			names, units = append(names, m.Name), append(units, m.Unit)
		}
		return
	}
	for _, m := range endToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	return
}

func (r *report) print() error {
	names, units := namesAndUnits(r.Traced)
	kind := "end-to-end, untraced"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("# %s seed=%d (%s)\n", r.Workload, r.Seed, kind)
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for i, n := range names {
		v := r.Metrics[n]
		fmt.Printf("%-34s %16.6f %s\n", n, v, units[i])
		line.Metrics[n] = metricValue{Value: v, Unit: units[i]}
	}
	for _, n := range r.Notes {
		fmt.Printf("# %s\n", n)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// findRoot walks up from the working directory to the distjoin module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module distjoin\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the distjoin repository (no go.mod with \"module distjoin\" above the working directory)")
		}
		dir = parent
	}
}

func main() {
	var (
		cfg       config
		trace     = flag.Int("trace", 0, "1 = the traced run (per-layer metrics and a span file), 0 = the untraced run (end-to-end metrics)")
		repeat    = flag.Int("repeat", 1, "run the selected workloads this many times, each in a fresh process, and print median, quartiles and whether the runs agree within the bounds")
		record    = flag.String("record", "", "write the runs of this invocation, with the host shape, to this JSON file")
		compare   = flag.String("compare", "", "compare this invocation's medians against a record written earlier with -record")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json as this program defines it and exit")
	)
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and of the operation schedule")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke mode: at most one second per workload, one set-up")
	flag.StringVar(&cfg.root, "root", "", "repository root (default: found from the working directory)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of the traced run (default: .bench_build/traces/<workload>-seed<n>.json under the root)")
	flag.Parse()
	cfg.trace = *trace != 0

	if *printSpec {
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if cfg.quick && cfg.seconds > 1 {
		cfg.seconds = 0.5
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %v", cfg.seconds))
	}
	if cfg.root == "" {
		root, err := findRoot()
		if err != nil {
			fatal(err)
		}
		cfg.root = root
	}

	if _, ok := findWorkload(cfg.workload); ok && *repeat <= 1 && *record == "" && *compare == "" {
		rep, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		if err := rep.print(); err != nil {
			fatal(err)
		}
		if !rep.correct() {
			os.Exit(1)
		}
		return
	}
	if err := runSet(cfg, *repeat, *record, *compare); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
