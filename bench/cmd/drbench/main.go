// Command drbench is the repository's end-to-end benchmark: it spawns the
// real drserverd per workload, drives it over loopback HTTP with a fixed,
// seeded operation script and reports what a caller of the admission plane
// sees (untraced run) or what each layer contributes (traced run).
//
//	drbench --workload churn-highpop --seed 1 --seconds 10 --trace 0
//
// prints one JSON object as the last line of standard output. Without
// --workload it runs every workload, timed and traced, and prints every
// metric by name with its unit and sample count. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"drqos/bench/daemon"
	"drqos/bench/script"
)

// env is where a run finds the daemon binary and keeps its files.
type env struct {
	serverBin string // built drserverd
	workDir   string // scratch for data directories and logs
	outDir    string // trace files
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (empty: all of them, timed then traced)")
		seed      = flag.Int64("seed", 1, "script seed: equal seeds give identical operation scripts")
		seconds   = flag.Int("seconds", 20, "nominal length of the measured window; sizes the script, does not time it")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two complete sets and compare them against the bounds in BENCHMARK.json")
		serverBin = flag.String("drserverd", "", "path to the built drserverd binary")
		workDir   = flag.String("work", "", "scratch directory for data dirs and daemon logs")
		outDir    = flag.String("out", "", "directory for trace-<workload>.json")
		benchJSON = flag.String("benchmark-json", "", "path to BENCHMARK.json (selfcheck)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *serverBin == "" || *workDir == "" || *outDir == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "drbench: run it through bench/run.sh, which builds the binaries and passes the paths")
		flag.Usage()
		os.Exit(2)
	}
	// A run that is told to stop takes its daemons with it and prints no result.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		daemon.KillAll()
		fmt.Fprintln(os.Stderr, "drbench: stopped by signal:", s)
		os.Exit(1)
	}()

	e := &env{serverBin: *serverBin, workDir: *workDir, outDir: *outDir}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *selfcheck:
		if err := e.selfcheck(*benchJSON, *seed, *seconds, os.Stdout); err != nil {
			fatal(err)
		}
	case *workload == "":
		if err := e.runAll(*seed, *seconds, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		w, err := script.ByName(*workload)
		if err != nil {
			fatal(err)
		}
		o, err := e.run(w, *seed, *seconds, *trace != 0)
		if err != nil {
			fatal(err)
		}
		for _, p := range o.problems {
			fmt.Fprintln(os.Stderr, "drbench: INCORRECT:", p)
		}
		if *trace == 0 {
			fmt.Fprintf(os.Stderr, "drbench: %s seed %d: machine speed factor %.3f over the measured window\n", w.Name, *seed, o.speed)
		}
		line, err := json.Marshal(o)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !o.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drbench:", err)
	os.Exit(1)
}

// run executes one workload once, timed or traced.
func (e *env) run(w script.Workload, seed int64, seconds int, traced bool) (*outcome, error) {
	if traced {
		return e.tracedRun(w, seed, seconds, filepath.Join(e.outDir, "trace-"+w.Name+".json"))
	}
	return e.timedRun(w, seed, seconds)
}
