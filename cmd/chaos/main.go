// Command chaos soaks the admission plane with seeded fault-injection
// episodes. -episode picks what runs:
//
//	trace     (default) the bare DR-connection manager under a random event
//	          trace, every invariant audited after every event; on the
//	          first failure the trace is shrunk to a minimal reproducer and
//	          printed as a Go literal to paste into a chaos.Replay test
//	<name>    one row of the episode table (internal/chaos.Episodes): a
//	          running plane — in-memory, journaled, replicated or sharded —
//	          under a seeded script with faults at script positions, judged
//	          by the replay oracle
//	<family>  every row called family-*, round-robin: mix, crash, partition
//	all       the whole table, round-robin
//
// Episode i runs under seed+i. Run under -race for the concurrent rows to
// matter:
//
//	go run -race ./cmd/chaos -episodes 60 -events 120 -seed 1
//	go run -race ./cmd/chaos -episode mix -episodes 6
//	go run ./cmd/chaos -episode crash -episodes 8
//	go run -race ./cmd/chaos -episode partition -episodes 20
package main

import (
	"flag"
	"fmt"
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
		episode  = flag.String("episode", "trace", "trace, all, or an episode name or family: "+strings.Join(names, " "))
		episodes = flag.Int("episodes", 20, "number of seeded episodes")
		seed     = flag.Uint64("seed", 1, "first seed; episode i uses seed+i")
		events   = flag.Int("events", 200, "events per manager trace (-episode trace)")
		nodes    = flag.Int("nodes", 24, "Waxman topology size (-episode trace)")
		quiet    = flag.Bool("q", false, "only report failures")
	)
	flag.Parse()

	rows := chaos.Select(*episode)
	if *episode != "trace" && len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "chaos: no episode or family %q; have: trace all %s\n", *episode, strings.Join(names, " "))
		os.Exit(2)
	}
	for i := 0; i < *episodes; i++ {
		s := *seed + uint64(i)
		var err error
		if *episode == "trace" {
			err = trace(i, chaos.Config{Seed: s, Events: *events, Nodes: *nodes}, *quiet)
		} else {
			err = run(i, rows[i%len(rows)], s, *quiet)
		}
		if err != nil {
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

// trace runs one audited manager trace and shrinks it if it fails.
func trace(i int, cfg chaos.Config, quiet bool) error {
	events, fail, err := chaos.Run(cfg)
	if err != nil {
		return fmt.Errorf("seed %d: setup: %w", cfg.Seed, err)
	}
	if fail != nil {
		fmt.Fprintf(os.Stderr, "chaos: episode %d (seed %d) FAILED: %v\n", i, cfg.Seed, fail)
		min, mf, serr := chaos.Shrink(cfg, events)
		if serr != nil {
			return fmt.Errorf("shrink: %w", serr)
		}
		fmt.Fprintf(os.Stderr, "shrunk to %d event(s), still failing with: %v\n", len(min), mf.Err)
		fmt.Fprintf(os.Stderr, "replay with chaos.Replay(chaos.Config{Seed: %d, Nodes: %d}, trace) where trace =\n%s\n",
			cfg.Seed, cfg.Nodes, chaos.FormatTrace(min))
		return fail
	}
	if !quiet {
		fmt.Printf("episode %d ok (seed %d, %d events, final audit clean)\n", i, cfg.Seed, len(events))
	}
	return nil
}
