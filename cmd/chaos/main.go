// Command chaos soaks the admission plane with seeded fault-injection
// episodes: rows of the episode table (internal/chaos.Episodes), each a
// running plane — in-memory, journaled, replicated or sharded — under a
// seeded script with faults at script positions, judged by the replay
// oracle. -episode picks the rows:
//
//	all       (default) the whole table, round-robin
//	<name>    one row
//	<family>  every row called family-*, round-robin: mix, crash, partition
//
// Episode i runs under seed+i. Run under -race for the concurrent rows to
// matter:
//
//	go run -race ./cmd/chaos -episode mix -episodes 6
//	go run ./cmd/chaos -episode crash -episodes 8
//	go run -race ./cmd/chaos -episode partition -episodes 20
//
// -episodes below 1 and an unknown -episode are refused with status 2.
//
// The bare manager's soak is a fuzz target, not a mode of this command:
// go test -fuzz FuzzApply ./internal/chaos audits every event of traces
// decoded from the fuzzer's input, and a failing input lands under
// internal/chaos/testdata/fuzz/ as a regression seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"drqos/internal/chaos"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run soaks the rows args select and returns the exit status: 0 when every
// episode is clean, 1 on the first unclean one, 2 for a refused command line.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, ep := range chaos.Episodes {
		names = append(names, ep.Name)
	}
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		episode  = fs.String("episode", "all", "all, or an episode name or family: "+strings.Join(names, " "))
		episodes = fs.Int("episodes", 20, "number of seeded episodes, at least 1")
		seed     = fs.Uint64("seed", 1, "first seed; episode i uses seed+i")
		quiet    = fs.Bool("q", false, "only report failures: no per-episode line, no plane log")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *quiet {
		// The planes log their own transitions (degrade, failover, lease,
		// overload) through the default logger; -q keeps to failures.
		log.SetOutput(io.Discard)
	}

	rows := chaos.Select(*episode)
	if len(rows) == 0 {
		fmt.Fprintf(stderr, "chaos: no episode or family %q; have: all %s\n", *episode, strings.Join(names, " "))
		return 2
	}
	// A soak that runs nothing must not read as a clean one.
	if *episodes < 1 {
		fmt.Fprintf(stderr, "chaos: -episodes %d: need at least 1\n", *episodes)
		return 2
	}
	for i := 0; i < *episodes; i++ {
		if err := runEpisode(stdout, i, rows[i%len(rows)], *seed+uint64(i), *quiet); err != nil {
			fmt.Fprintf(stderr, "chaos: episode %d: %v\n", i, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "chaos: %d episode(s) clean\n", *episodes)
	return 0
}

// runEpisode executes one table row in a throwaway data directory.
func runEpisode(out io.Writer, i int, ep chaos.Episode, seed uint64, quiet bool) error {
	dir, err := os.MkdirTemp("", "drqos-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fp, err := ep.Run(seed, dir)
	if err == nil && !quiet {
		fmt.Fprintf(out, "episode %d ok: %s (seed %d, fp=%.12s)\n", i, ep.Name, seed, fp)
	}
	return err
}
