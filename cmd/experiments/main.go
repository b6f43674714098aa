// Command experiments regenerates the paper's tables and figures plus the
// reproduction's ablations, printing each as a Markdown table.
//
// Examples:
//
//	experiments -run all -scale quick
//	experiments -run fig2,fig4 -scale full -seed 2001
//	experiments -run all -scale full -parallel 8
//	experiments -run fig2 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"drqos/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runList    = flag.String("run", "all", "comma-separated: fig2,table1,fig3,fig4,ablationA..E,coverage,variability or all")
		scale      = flag.String("scale", "quick", "quick or full")
		seed       = flag.Uint64("seed", 2001, "experiment seed")
		datDir     = flag.String("dat", "", "also write each experiment's table as DIR/<name>.dat, plus DIR/plots.gp")
		parallel   = flag.Int("parallel", 0, "sweep-point workers per experiment (0 = GOMAXPROCS, 1 = sequential); results are identical for any value")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
			f.Close()
		}()
	}

	cfg := experiments.Config{Seed: *seed, Workers: *parallel}
	switch *scale {
	case "quick":
		cfg.Scale = experiments.ScaleQuick
	case "full":
		cfg.Scale = experiments.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	type tabler interface{ Table() *experiments.Table }
	runners := map[string]func() (tabler, error){
		"fig2":        func() (tabler, error) { return experiments.Fig2(cfg) },
		"table1":      func() (tabler, error) { return experiments.Table1(cfg) },
		"fig3":        func() (tabler, error) { return experiments.Fig3(cfg) },
		"fig4":        func() (tabler, error) { return experiments.Fig4(cfg) },
		"ablationA":   func() (tabler, error) { return experiments.AblationA(cfg) },
		"ablationB":   func() (tabler, error) { return experiments.AblationB(cfg) },
		"ablationC":   func() (tabler, error) { return experiments.AblationC(cfg) },
		"ablationD":   func() (tabler, error) { return experiments.AblationD(cfg) },
		"ablationE":   func() (tabler, error) { return experiments.AblationE(cfg) },
		"coverage":    func() (tabler, error) { return experiments.Coverage(cfg) },
		"variability": func() (tabler, error) { return experiments.Variability(cfg) },
	}
	order := []string{"fig2", "table1", "fig3", "fig4", "ablationA", "ablationB", "ablationC", "ablationD", "ablationE", "coverage", "variability"}

	selected := strings.Split(*runList, ",")
	if *runList == "all" {
		selected = order
	}
	for _, name := range selected {
		name = strings.TrimSpace(name)
		runner, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(order, ", "))
		}
		start := time.Now()
		res, err := runner()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("=== %s (%s scale, %s) ===\n", name, *scale, time.Since(start).Round(time.Millisecond))
		table := res.Table()
		if err := table.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if *datDir != "" {
			if err := os.MkdirAll(*datDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*datDir, name+".dat"), table.Dat(), 0o644); err != nil {
				return err
			}
		}
	}
	if *datDir != "" {
		if err := os.WriteFile(filepath.Join(*datDir, "plots.gp"), []byte(experiments.GnuplotScript()), 0o644); err != nil {
			return err
		}
		fmt.Printf("gnuplot data written to %s (run: gnuplot plots.gp)\n", *datDir)
	}
	return nil
}
