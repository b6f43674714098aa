// Package script defines drbench's workloads and generates, from a seed,
// the fixed operation scripts the load clients execute against drserverd.
// Nothing here talks to a daemon: the generator rebuilds the daemon's
// topology (and shard plan) in-process so it can choose endpoint pairs and
// fault links, and the daemon only ever sees the resulting requests.
package script

import (
	"fmt"

	"drqos/internal/core"
	"drqos/internal/manager"
)

// Clients is the number of closed-loop load clients, one keep-alive
// connection each. The target machine has two cores; more clients would
// only queue behind each other.
const Clients = 2

// Workload is one benchmark scenario. Workloads share one op mix and one
// generator; they differ only in the daemon's deployment shape, topology,
// standing population, pair locality and script length.
type Workload struct {
	Name string
	Why  string

	// Daemon deployment.
	Kind    string // -kind: "waxman" or "tier"
	Shards  int    // -shards (1 = single plane)
	Durable bool   // -data-dir + -fsync 1 group commit
	Replica bool   // primary + warm standby (implies Durable)

	// TimerBound says the workload's round trips are set by timers, not by
	// the CPU (a replicated mutation waits out a group-commit window and the
	// standby's long-poll), so its timings are reported as measured: scaling
	// them by the machine's speed factor would add the machine's noise
	// instead of removing it.
	TimerBound bool

	// Standing is the connection population built during set-up and held
	// level by the script (establish share = terminate share).
	Standing int
	// CrossShare is the share of establishes whose endpoints lie in
	// different shards (sharded workloads only).
	CrossShare float64
	// OpsPerSecond sizes the script: N = OpsPerSecond × -seconds. It is a
	// constant of the workload, not a measurement — the run ends when the
	// script is exhausted, however long that takes.
	OpsPerSecond int
	// EstablishLimitMs is the fixed latency limit behind establish_in_limit,
	// set once, when the workload was defined, well above the establish p99
	// measured then: the share moves when the tail does, not with the median.
	EstablishLimitMs float64
}

// TopologySeed and Nodes fix the network every workload's daemon generates
// (-seed, -nodes). The benchmark seed varies the op script only: per-op cost
// depends on the topology, so a topology that moved with the seed would
// turn seed-to-seed spread into a property of the graph, not of the code.
const (
	TopologySeed = 1
	Nodes        = 100
)

// Workloads lists the scenarios in their fixed run order.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "churn-highpop",
			Why: "in-memory plane holding 2000 connections: routing, adaptation over thousands of sharers " +
				"and full-state epoch publish dominate; journal and replication bypassed; establish limit 12 ms",
			Kind: "waxman", Shards: 1,
			Standing: 2000, OpsPerSecond: 700, EstablishLimitMs: 12,
		},
		{
			Name: "durable-lowpop",
			Why: "fsync-1 group-commit journal over 100 connections: manager is cheap, so journal, actor loop " +
				"and HTTP/JSON per-op cost dominate; replication and 2PC bypassed; establish limit 8 ms",
			Kind: "waxman", Shards: 1, Durable: true,
			Standing: 100, OpsPerSecond: 3200, EstablishLimitMs: 8,
		},
		{
			Name: "shard-cross",
			Why: "4 in-memory shards on the tier topology, 30% cross-shard establishes: 2PC prepare/commit and the " +
				"aggregating front end do the work; intra-shard ops in the same run bypass it; establish limit 4 ms",
			Kind: "tier", Shards: 4, CrossShare: 0.30,
			Standing: 300, OpsPerSecond: 3400, EstablishLimitMs: 4,
		},
		{
			Name: "replica-pair",
			Why: "primary + warm standby, lease on, fsync 1: every mutation ack waits on journal streaming and the " +
				"standby's semi-sync confirmation; reads bypass replication; establish limit 16 ms",
			Kind: "waxman", Shards: 1, Durable: true, Replica: true, TimerBound: true,
			Standing: 100, OpsPerSecond: 330, EstablishLimitMs: 16,
		},
	}
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// ManagerConfig is the admission config drserverd runs with under its
// default flags; the generator's eligibility oracle and the in-process
// layer replays must use the same one.
func ManagerConfig() manager.Config {
	return manager.Config{Capacity: core.PaperCapacity, RequireBackup: true}
}

// Ops returns the script length for a measured window nominally seconds
// long: a whole number of mix blocks per client.
func (w Workload) Ops(seconds int) int {
	perClient := w.OpsPerSecond * seconds / Clients / blockOps
	if perClient < 2 {
		perClient = 2
	}
	return perClient * blockOps * Clients
}
