// Package chaos is a deterministic fault-injection harness for the
// DR-connection manager and the admission server wrapping it.
//
// A seeded episode drives a random interleaving of Establish / Terminate /
// FailLink / RepairLink events against a fresh manager.Manager and runs the
// full invariant audit (Manager.CheckInvariants) after every single event,
// so the exact event that corrupts the ledger is caught red-handed, not
// thousands of events later. Identical configs replay identical episodes —
// the trace is a list of concrete events, so a failure shrinks (Shrink) to
// a minimal reproducer and prints (FormatTrace) as a Go literal ready to
// paste into a regression test.
//
// The same op type and the same generator script every episode against a
// running plane — in-memory, journaled, replicated or sharded, with faults
// placed at script positions and one oracle judging the outcome; see
// episode.go.
package chaos

import (
	"fmt"

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

// Kind enumerates the event types a chaos trace can contain.
type Kind int

// The four manager events. Shutdown interleavings are an episode fault
// (ShutdownMidBurst), not a trace event: a single-threaded manager has no
// shutdown.
const (
	KindEstablish Kind = iota
	KindTerminate
	KindFailLink
	KindRepairLink
)

var kindNames = [...]string{"establish", "terminate", "fail_link", "repair_link"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one replayable step of a chaos trace. Fields irrelevant to the
// kind are zero. Events reference concrete IDs (not random draws), so a
// recorded trace replays against a fresh manager without the generator.
type Event struct {
	Kind     Kind
	Src, Dst int   // Establish endpoints
	Conn     int64 // Terminate target
	Link     int   // FailLink / RepairLink target
}

func (e Event) String() string {
	switch e.Kind {
	case KindEstablish:
		return fmt.Sprintf("establish %d->%d", e.Src, e.Dst)
	case KindTerminate:
		return fmt.Sprintf("terminate conn %d", e.Conn)
	case KindFailLink:
		return fmt.Sprintf("fail link %d", e.Link)
	case KindRepairLink:
		return fmt.Sprintf("repair link %d", e.Link)
	default:
		return e.Kind.String()
	}
}

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
	Hook func(ev Event, m *manager.Manager)
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
	Trace []Event
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

// record is ev as a journal record: the form in which the daemon's write
// path, a restart and the runner below all hand it to the one transition
// function.
func (ev Event) record() journal.Event {
	switch ev.Kind {
	case KindEstablish:
		return server.EstablishEvent(topology.NodeID(ev.Src), topology.NodeID(ev.Dst), elastic)
	case KindTerminate:
		return journal.Event{Kind: journal.KindTerminate, Conn: ev.Conn}
	case KindFailLink:
		return journal.Event{Kind: journal.KindFailLink, Link: int32(ev.Link)}
	default:
		return journal.Event{Kind: journal.KindRepairLink, Link: int32(ev.Link)}
	}
}

// apply runs one event the way the server would: the pre-journal check
// first, so usage errors — unknown connections, double faults, which are
// expected parts of a random interleaving and of a shrunk trace whose
// establishing event was deleted — degrade to no-ops; then the transition
// function, which tolerates an admission rejection and returns anything
// else, in particular an InvariantViolation.
func (r *runner) apply(ev Event) error {
	rec := ev.record()
	if server.Validate(r.m, &r.txns, rec) != nil {
		return nil
	}
	return server.Replay(r.m, &r.txns, rec)
}

// step applies one event, runs the hook, and audits the full ledger.
func (r *runner) step(ev Event) error {
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
func nextEvent(src *rng.Source, pop population) Event {
	draw := src.Float64()
	switch {
	case draw < 0.30 && len(pop.alive) > 0:
		return Event{Kind: KindTerminate, Conn: pop.alive[src.Intn(len(pop.alive))]}
	case draw >= 0.88 && draw < 0.96 && len(pop.up) > 0:
		return Event{Kind: KindFailLink, Link: pop.up[src.Intn(len(pop.up))]}
	case draw >= 0.96 && len(pop.down) > 0:
		return Event{Kind: KindRepairLink, Link: pop.down[src.Intn(len(pop.down))]}
	}
	a := src.Intn(pop.nodes)
	b := src.Intn(pop.nodes - 1)
	if b >= a {
		b++
	}
	return Event{Kind: KindEstablish, Src: a, Dst: b}
}

// run steps the runner through n events from next, auditing after each, and
// returns them with the failure that stopped it, if one did.
func (r *runner) run(n int, next func(i int) Event) (trace []Event, fail *Failure) {
	for i := 0; i < n; i++ {
		trace = append(trace, next(i))
		if err := r.step(trace[i]); err != nil {
			return trace, &Failure{Index: i, Trace: append([]Event(nil), trace...), Err: err}
		}
	}
	return trace, nil
}

// Run generates and executes one seeded trace, auditing after every event.
// It returns the full generated trace; fail is non-nil when an event or
// audit broke an invariant (shrink it with Shrink). A non-nil err reports
// setup problems only (bad topology or manager config).
func Run(cfg Config) (trace []Event, fail *Failure, err error) {
	cfg = cfg.withDefaults()
	r, err := newRunner(cfg)
	if err != nil {
		return nil, nil, err
	}
	src := rng.New(cfg.Seed)
	trace, fail = r.run(cfg.Events, func(int) Event { return nextEvent(src, managerPopulation(r.m)) })
	return trace, fail, nil
}

// Replay applies a recorded trace against a fresh manager built from cfg,
// auditing after every event exactly like Run. It returns nil when the
// trace completes cleanly; the error reports setup problems only.
func Replay(cfg Config, trace []Event) (*Failure, error) {
	r, err := newRunner(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	_, fail := r.run(len(trace), func(i int) Event { return trace[i] })
	return fail, nil
}
