// Package chaos is a deterministic fault-injection harness for the
// DR-connection manager and the admission server wrapping it.
//
// A seeded episode drives a random interleaving of Establish / Terminate /
// FailLink / RepairLink events against a fresh manager.Manager and runs the
// full invariant audit (Manager.CheckInvariants) after every single event,
// so the exact event that corrupts the ledger is caught red-handed, not
// thousands of events later. Identical configs replay identical episodes —
// the trace is a list of concrete journal records, applied through the
// daemon's own Validate and Replay, so a failure shrinks (Shrink) to a
// minimal reproducer and prints (FormatTrace) as a Go literal ready to
// paste into a regression test.
//
// The same records and the same generator script every episode against a
// running plane — in-memory, journaled, replicated or sharded, with faults
// placed at script positions and one oracle judging the outcome; see
// episode.go.
package chaos

import (
	"fmt"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// Every plane this package builds admits the paper's elastic connections
// (100..500 Kb/s in steps of 50) onto 10 000 Kb/s links.
const capacityKbps = 10_000

var elastic = qos.DefaultSpec()

// Config seeds one manager trace. The zero value of every field selects a
// sensible default, so Config{Seed: n} is a complete spec. Admission runs
// at 10 000 Kb/s per link against the paper's 100..500 Kb/s connections:
// low capacity relative to the spec is deliberate, contention is what
// exercises squeeze, redistribute and failover.
type Config struct {
	// Seed drives the event mix and the topology. Distinct seeds explore
	// distinct interleavings on distinct graphs.
	Seed uint64
	// Events is the trace length (default 200).
	Events int
	// Nodes is the Waxman topology size (default 24).
	Nodes int
	// Hook, when non-nil, runs after every applied event with the live
	// manager. Fault-injection tests use it to deliberately corrupt state
	// and prove the audit, the degraded mode, and the shrinker catch it.
	Hook func(ev journal.Event, m *manager.Manager)
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 200
	}
	if c.Nodes <= 0 {
		c.Nodes = 24
	}
	return c
}

// Failure describes an episode that broke an invariant (or returned an
// unexpected event error).
type Failure struct {
	// Index is the position of the failing event within Trace.
	Index int
	// Trace is the event sequence up to and including the failing event;
	// replaying it under the same Config reproduces Err.
	Trace []journal.Event
	// Err is the audit failure or event error.
	Err error
}

func (f *Failure) Error() string {
	return fmt.Sprintf("chaos: event %d (%s): %v", f.Index, f.Trace[f.Index], f.Err)
}

// Unwrap exposes the underlying violation to errors.Is / errors.As.
func (f *Failure) Unwrap() error { return f.Err }

// runner executes events against one manager instance.
type runner struct {
	cfg  Config
	m    *manager.Manager
	txns server.TxnTable // stays empty: the four paper events open no transaction
}

// waxman is the topology of everything here but the sharded plane.
func waxman(nodes int, seed uint64) (*topology.Graph, error) {
	return topology.Waxman(topology.WaxmanConfig{
		Nodes: nodes, Alpha: 0.33, Beta: 0.25, EnsureConnected: true,
	}, rng.New(seed+0x9e3779b97f4a7c15))
}

func newRunner(cfg Config) (*runner, error) {
	g, err := waxman(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("chaos: topology: %w", err)
	}
	m, err := manager.New(g, manager.Config{Capacity: capacityKbps})
	if err != nil {
		return nil, fmt.Errorf("chaos: manager: %w", err)
	}
	return &runner{cfg: cfg, m: m}, nil
}

// apply runs one event the way the server would: the pre-journal check
// first, so usage errors — unknown connections, double faults, which are
// expected parts of a random interleaving and of a shrunk trace whose
// establishing event was deleted — degrade to no-ops; then the transition
// function, which tolerates an admission rejection and returns anything
// else, in particular an InvariantViolation.
func (r *runner) apply(ev journal.Event) error {
	if server.Validate(r.m, &r.txns, ev) != nil {
		return nil
	}
	return server.Replay(r.m, &r.txns, ev)
}

// step applies one event, runs the hook, and audits the full ledger.
func (r *runner) step(ev journal.Event) error {
	if err := r.apply(ev); err != nil {
		return err
	}
	if r.cfg.Hook != nil {
		r.cfg.Hook(ev, r.m)
	}
	return r.m.CheckInvariants()
}

// population is what the op generator may know about the plane it scripts:
// its size, which connections can be terminated, which links are up and
// which are down. A manager run reads it off the manager; an episode reads
// it off the ledger of what its clients were told.
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

func managerPopulation(m *manager.Manager) population {
	pop := newPopulation(m.Graph().NumNodes(), m.Graph().NumLinks(),
		func(l int) bool { return m.Network().Failed(topology.LinkID(l)) })
	for _, id := range m.AliveIDs() {
		pop.alive = append(pop.alive, int64(id))
	}
	return pop
}

// nextEvent is the one op generator: mostly arrivals and terminations, with
// a steady trickle of link faults and repairs so the failover and
// reprotection paths stay hot.
func nextEvent(src *rng.Source, pop population) journal.Event {
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

// run steps the runner through n events from next, auditing after each, and
// returns them with the failure that stopped it, if one did.
func (r *runner) run(n int, next func(i int) journal.Event) (trace []journal.Event, fail *Failure) {
	for i := 0; i < n; i++ {
		trace = append(trace, next(i))
		if err := r.step(trace[i]); err != nil {
			return trace, &Failure{Index: i, Trace: append([]journal.Event(nil), trace...), Err: err}
		}
	}
	return trace, nil
}

// Run generates and executes one seeded trace, auditing after every event.
// It returns the full generated trace; fail is non-nil when an event or
// audit broke an invariant (shrink it with Shrink). A non-nil err reports
// setup problems only (bad topology or manager config).
func Run(cfg Config) (trace []journal.Event, fail *Failure, err error) {
	cfg = cfg.withDefaults()
	r, err := newRunner(cfg)
	if err != nil {
		return nil, nil, err
	}
	src := rng.New(cfg.Seed)
	trace, fail = r.run(cfg.Events, func(int) journal.Event { return nextEvent(src, managerPopulation(r.m)) })
	return trace, fail, nil
}

// Replay applies a recorded trace against a fresh manager built from cfg,
// auditing after every event exactly like Run. It returns nil when the
// trace completes cleanly; the error reports setup problems only.
func Replay(cfg Config, trace []journal.Event) (*Failure, error) {
	r, err := newRunner(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	_, fail := r.run(len(trace), func(i int) journal.Event { return trace[i] })
	return fail, nil
}
