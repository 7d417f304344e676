package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// A set is every selected workload, untraced and traced. Each run of a
// set is a fresh process, as the driver's runs are: the resident-set
// high-water mark and the collector's state do not carry over from one
// run to the next.

// runRecord is one run as a record file keeps it.
type runRecord struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// summary is one end-to-end metric of one workload over the sets.
type summary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	// Spread is the interquartile distance over the median from four
	// sets on, the full range over the median below that.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Agree  bool    `json:"agree"`
}

// record is what -record writes: every number with the host shape it
// was taken on.
type record struct {
	CreatedAt string      `json:"created_at"`
	Host      hostShape   `json:"host"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Quick     bool        `json:"quick"`
	Sets      int         `json:"sets"`
	Runs      []runRecord `json:"runs"`
	Summary   []summary   `json:"summary"`
}

// runChild runs one workload in a child process, passes its output
// through, and parses its result line.
func runChild(cfg config, w string, seed int64, traced bool) (runRecord, error) {
	rr := runRecord{Workload: w, Traced: traced, Seed: seed, Metrics: map[string]float64{}}
	exe, err := os.Executable()
	if err != nil {
		return rr, err
	}
	args := []string{
		"-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-root", cfg.root,
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(out.Bytes())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return rr, fmt.Errorf("%s: %w", w, runErr)
		}
		return rr, fmt.Errorf("%s: no result line: %w", w, err)
	}
	rr.Correct, rr.Attempted, rr.Failed = line.Correct, line.Attempted, line.Failed
	for name, v := range line.Metrics {
		rr.Metrics[name] = v.Value
	}
	return rr, nil
}

func runSet(cfg config, sets int, recordPath, comparePath string) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(cfg.workload); !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rec := record{
		CreatedAt: time.Now().UTC().Format(time.RFC3339), Host: thisHost(),
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick, Sets: max(sets, 1),
	}
	wrong := 0
	for set := 0; set < rec.Sets; set++ {
		// Each set has a seed of its own, as each run of the driver has.
		seed := cfg.seed + int64(set)
		for _, w := range names {
			for _, traced := range []bool{false, true} {
				rr, err := runChild(cfg, w, seed, traced)
				if err != nil {
					return err
				}
				if !rr.Correct {
					wrong++
				}
				rec.Runs = append(rec.Runs, rr)
			}
		}
	}
	rec.Summary = summarise(rec.Runs, names)
	disagree := 0
	fmt.Printf("# %d set(s), seeds %d..%d, %g s measured per run, host: %d CPU, GOMAXPROCS %d, %s, %s\n",
		rec.Sets, cfg.seed, cfg.seed+int64(rec.Sets)-1, cfg.seconds,
		rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.CPUModel, rec.Host.GoVersion)
	fmt.Printf("%-11s %-16s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "agree")
	for _, s := range rec.Summary {
		verdict := "-"
		if rec.Sets >= 2 {
			verdict = "yes"
			if !s.Agree {
				verdict = "NO"
				disagree++
			}
		}
		fmt.Printf("%-11s %-16s %14.6f %14.6f %14.6f %8.4f %6.2f  %s\n", s.Workload, s.Metric, s.Median, s.Q1, s.Q3, s.Spread, s.Bound, verdict)
	}
	if recordPath != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(recordPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	regressions := 0
	if comparePath != "" {
		var err error
		if regressions, err = compare(rec, comparePath); err != nil {
			return err
		}
	}
	switch {
	case wrong > 0:
		return fmt.Errorf("%d run(s) returned a wrong answer", wrong)
	case disagree > 0:
		return fmt.Errorf("%d metric(s) differ between the sets by more than their bound", disagree)
	case regressions > 0:
		return fmt.Errorf("%d metric(s) are worse than the baseline by more than their bound", regressions)
	}
	return nil
}

// summarise reduces the untraced runs to one row per workload and
// end-to-end metric.
func summarise(runs []runRecord, names []string) []summary {
	var out []summary
	for _, w := range names {
		for _, m := range endToEnd {
			s := summary{Workload: w, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
			for _, r := range runs {
				if r.Workload == w && !r.Traced {
					s.Values = append(s.Values, r.Metrics[m.Name])
				}
			}
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			if len(s.Values) >= 4 {
				s.Spread = spreadShare(s.Values)
			} else if s.Median != 0 {
				sorted := sortedCopy(s.Values)
				s.Spread = (sorted[len(sorted)-1] - sorted[0]) / s.Median
			}
			s.Agree = s.Spread <= m.Bound
			out = append(out, s)
		}
	}
	return out
}

// compare holds this invocation's medians against a baseline record. A
// number that depends on the machine's speed is compared only when
// both records were taken on the same host shape.
func compare(now record, baselinePath string) (regressions int, err error) {
	b, err := os.ReadFile(baselinePath)
	if err != nil {
		return 0, err
	}
	var base record
	if err := json.Unmarshal(b, &base); err != nil {
		return 0, fmt.Errorf("%s: %w", baselinePath, err)
	}
	sameHost := base.Host == now.Host
	if !sameHost {
		fmt.Printf("# host shapes differ (baseline %+v, now %+v): wall-clock and CPU metrics are not compared\n", base.Host, now.Host)
	}
	baseline := map[string]summary{}
	for _, s := range base.Summary {
		baseline[s.Workload+"/"+s.Metric] = s
	}
	fmt.Printf("%-11s %-16s %14s %14s %9s %6s  %s\n", "workload", "metric", "baseline", "now", "change", "bound", "verdict")
	for _, s := range now.Summary {
		old, ok := baseline[s.Workload+"/"+s.Metric]
		if !ok || old.Median == 0 {
			continue
		}
		var m e2eMetric
		for _, cand := range endToEnd {
			if cand.Name == s.Metric {
				m = cand
			}
		}
		if m.hostBound && !sameHost {
			fmt.Printf("%-11s %-16s %14.6f %14.6f %9s %6.2f  refused: different host shape\n", s.Workload, s.Metric, old.Median, s.Median, "-", m.Bound)
			continue
		}
		worse := (s.Median - old.Median) / old.Median
		if m.Better == higher {
			worse = -worse
		}
		verdict := "ok"
		if worse > m.Bound {
			verdict = "WORSE"
			regressions++
		}
		fmt.Printf("%-11s %-16s %14.6f %14.6f %+8.2f%% %6.2f  %s\n", s.Workload, s.Metric, old.Median, s.Median, 100*(s.Median-old.Median)/old.Median, m.Bound, verdict)
	}
	return regressions, nil
}
