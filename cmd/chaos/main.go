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
// The bare manager's soak is a fuzz target, not a mode of this command:
// go test -fuzz FuzzApply ./internal/chaos audits every event of traces
// decoded from the fuzzer's input, and a failing input lands under
// internal/chaos/testdata/fuzz/ as a regression seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"drqos/internal/chaos"
)

func main() {
	var names []string
	for _, ep := range chaos.Episodes {
		names = append(names, ep.Name)
	}
	var (
		episode  = flag.String("episode", "all", "all, or an episode name or family: "+strings.Join(names, " "))
		episodes = flag.Int("episodes", 20, "number of seeded episodes")
		seed     = flag.Uint64("seed", 1, "first seed; episode i uses seed+i")
		quiet    = flag.Bool("q", false, "only report failures: no per-episode line, no plane log")
	)
	flag.Parse()
	if *quiet {
		// The planes log their own transitions (degrade, failover, lease,
		// overload) through the default logger; -q keeps to failures.
		log.SetOutput(io.Discard)
	}

	rows := chaos.Select(*episode)
	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "chaos: no episode or family %q; have: all %s\n", *episode, strings.Join(names, " "))
		os.Exit(2)
	}
	for i := 0; i < *episodes; i++ {
		if err := run(i, rows[i%len(rows)], *seed+uint64(i), *quiet); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: episode %d: %v\n", i, err)
			os.Exit(1)
		}
	}
	fmt.Printf("chaos: %d episode(s) clean\n", *episodes)
}

// run executes one table row in a throwaway data directory.
func run(i int, ep chaos.Episode, seed uint64, quiet bool) error {
	dir, err := os.MkdirTemp("", "drqos-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fp, err := ep.Run(seed, dir)
	if err == nil && !quiet {
		fmt.Printf("episode %d ok: %s (seed %d, fp=%.12s)\n", i, ep.Name, seed, fp)
	}
	return err
}
