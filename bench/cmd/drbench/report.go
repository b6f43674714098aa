package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"drqos/bench/script"
)

// endToEnd lists the end-to-end metrics and their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"establish_p50_ms", "ms"},
	{"establish_in_limit", "ratio"},
	{"rss_peak_mb", "MB"},
	{"accept_ratio", "ratio"},
	{"avg_bw_kbps", "Kbps"},
}

// printOutcome lists o's metrics in table order, each with unit and the
// number of samples behind it.
func printOutcome(out io.Writer, o *outcome, table []struct{ name, unit string }) {
	for _, t := range table {
		m := o.Metrics[t.name]
		fmt.Fprintf(out, "  %-38s %14.4f %-6s n=%d\n", t.name, m.Value, m.Unit, o.samples[t.name])
	}
}

// runAll is the one command a person runs: every workload in its fixed
// order, timed then traced, every metric printed by name. Any incorrect
// run fails the command, and then no metrics file is written.
func (e *env) runAll(seed int64, seconds int, out io.Writer) error {
	type pair struct {
		Timed  *outcome `json:"timed"`
		Traced *outcome `json:"traced"`
	}
	all := map[string]pair{}
	var problems []string
	for _, w := range script.Workloads() {
		fmt.Fprintf(out, "== %s  (seed %d, %d scripted operations)\n   %s\n", w.Name, seed, w.Ops(seconds), w.Why)
		timed, err := e.timedRun(w, seed, seconds)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Fprintf(out, " end to end (untraced): attempted %d, failed %d, machine speed factor %.3f\n", timed.Attempted, timed.Failed, timed.speed)
		printOutcome(out, timed, endToEnd)
		traced, err := e.run(w, seed, seconds, true)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		fmt.Fprintf(out, " per layer (traced): attempted %d, failed %d\n", traced.Attempted, traced.Failed)
		printOutcome(out, traced, perLayer)
		for _, o := range []*outcome{timed, traced} {
			for _, p := range o.problems {
				problems = append(problems, w.Name+": "+p)
			}
		}
		all[w.Name] = pair{timed, traced}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "drbench: INCORRECT:", p)
		}
		return fmt.Errorf("%d correctness failures; no metrics file written", len(problems))
	}
	b, err := json.MarshalIndent(map[string]any{"seed": seed, "seconds": seconds, "workloads": all}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.outDir, "metrics.json")
	fmt.Fprintf(out, "metrics written to %s, traces beside it\n", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfcheckRuns is how many timed runs per workload make up one set.
const selfcheckRuns = 3

// selfcheck runs two complete sets of timed runs back to back on the same
// code and holds them to the benchmark's own bounds: for every workload and
// end-to-end metric, the second set's median may not be worse than the
// first's by more than the bound in BENCHMARK.json.
func (e *env) selfcheck(benchJSON string, seed int64, seconds int, out io.Writer) error {
	raw, err := os.ReadFile(benchJSON)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchJSON, err)
	}

	set := func(n int) (map[string]map[string]float64, error) {
		medians := map[string]map[string]float64{}
		for _, w := range script.Workloads() {
			values := map[string][]float64{}
			for i := 0; i < selfcheckRuns; i++ {
				o, err := e.timedRun(w, seed+int64(i), seconds)
				if err != nil {
					return nil, fmt.Errorf("set %d, %s: %w", n, w.Name, err)
				}
				if !o.Correct {
					return nil, fmt.Errorf("set %d, %s: incorrect run: %v", n, w.Name, o.problems)
				}
				for name, m := range o.Metrics {
					values[name] = append(values[name], m.Value)
				}
			}
			medians[w.Name] = map[string]float64{}
			for name, v := range values {
				sort.Float64s(v)
				medians[w.Name][name] = v[len(v)/2]
			}
			fmt.Fprintf(out, "set %d: %s done\n", n, w.Name)
		}
		return medians, nil
	}
	first, err := set(1)
	if err != nil {
		return err
	}
	second, err := set(2)
	if err != nil {
		return err
	}

	failed := 0
	fmt.Fprintf(out, "%-16s %-20s %12s %12s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	for _, w := range script.Workloads() {
		for _, m := range spec.EndToEnd {
			a, b := first[w.Name][m.Name], second[w.Name][m.Name]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "pass"
			if worse > m.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(out, "%-16s %-20s %12.4f %12.4f %8.1f%% %6.1f%%  %s\n", w.Name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return errors.New("two sets of runs of the same code disagree beyond the benchmark's own bounds")
	}
	return nil
}
