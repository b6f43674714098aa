// Package chaos is the fault-injection harness for the admission plane.
//
// One op generator (nextEvent) scripts every episode against a running
// plane — in-memory, journaled, replicated or sharded, with faults placed
// at script positions and one oracle judging the outcome; see episode.go.
// The same generator, fed by the fuzzer's bytes instead of a seeded
// source, drives FuzzApply: the bare manager with a full invariant audit
// after every event, and its live, restored and replayed fingerprints
// held equal. Go's minimiser shrinks a failing input and keeps it under
// testdata/fuzz/ as a regression seed.
package chaos

import (
	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// Every plane this package builds admits the paper's elastic connections
// (100..500 Kb/s in steps of 50) onto 10 000 Kb/s links: low capacity
// relative to the spec is deliberate, contention is what exercises
// squeeze, redistribute and failover.
const capacityKbps = 10_000

var elastic = qos.DefaultSpec()

// waxman is the topology of everything here but the sharded plane.
func waxman(nodes int, seed uint64) (*topology.Graph, error) {
	return topology.Waxman(topology.WaxmanConfig{
		Nodes: nodes, Alpha: 0.33, Beta: 0.25,
	}, rng.New(seed+0x9e3779b97f4a7c15))
}

// population is what the op generator may know about the plane it scripts:
// its size, which connections can be terminated, which links are up and
// which are down. An episode reads it off the ledger of what its clients
// were told; FuzzApply reads it off the manager.
type population struct {
	nodes    int
	alive    []int64
	up, down []int // empty when the plane does not script link faults
}

// newPopulation sorts links 0..links-1 by failure state.
func newPopulation(nodes, links int, failed func(link int) bool) population {
	pop := population{nodes: nodes}
	for l := 0; l < links; l++ {
		if failed(l) {
			pop.down = append(pop.down, l)
		} else {
			pop.up = append(pop.up, l)
		}
	}
	return pop
}

// source is the randomness the generator draws: *rng.Source for episode
// scripts, the fuzz input's bytes for FuzzApply.
type source interface {
	Float64() float64
	Intn(n int) int
}

// nextEvent is the one op generator: mostly arrivals and terminations, with
// a steady trickle of link faults and repairs so the failover and
// reprotection paths stay hot.
func nextEvent(src source, pop population) journal.Event {
	draw := src.Float64()
	switch {
	case draw < 0.30 && len(pop.alive) > 0:
		return manager.TerminateEvent(channel.ConnID(pop.alive[src.Intn(len(pop.alive))]))
	case draw >= 0.88 && draw < 0.96 && len(pop.up) > 0:
		return manager.LinkEvent(journal.KindFailLink, topology.LinkID(pop.up[src.Intn(len(pop.up))]))
	case draw >= 0.96 && len(pop.down) > 0:
		return manager.LinkEvent(journal.KindRepairLink, topology.LinkID(pop.down[src.Intn(len(pop.down))]))
	}
	a := src.Intn(pop.nodes)
	b := src.Intn(pop.nodes - 1)
	if b >= a {
		b++
	}
	return manager.EstablishEvent(topology.NodeID(a), topology.NodeID(b), elastic)
}
