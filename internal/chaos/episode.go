// Episodes: the one way this package exercises a running plane. Run boots a
// plane, drives it with a seeded script from the op generator (nextEvent),
// injects the episode's faults at their script positions (faults.go), keeps
// one ledger of what every client was told, and lets one oracle (oracle.go)
// judge the survivors after every fault and at the end. The scenario
// families — concurrent mix, crash-restart, mid-2PC shard kill, failover,
// overload, partitions — are rows of Episodes: a new fault shape costs a
// row, not a runner. DESIGN.md "Episodes and the oracle" has the map from
// each gated behaviour to the clause or bound that covers it.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/netchaos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// Plane is the deployment an episode runs against.
type Plane int

const (
	// Single is one in-memory server. There is no journal to replay, so the
	// oracle judges it on invariants, the acked ledger and fault bounds.
	Single Plane = iota
	// Durable is one journaled server (group commit, fsync 1).
	Durable
	// Pair is a journaled primary and a warm standby with lease fencing on;
	// the standby streams through a netchaos transport.
	Pair
	// Sharded is a journaled four-shard coordinator on the tier topology
	// whose 2PC phase calls go through netchaos.
	Sharded
)

// FaultKind is the fault vocabulary. Each kind's liveness bound is a
// constant beside its implementation in faults.go.
type FaultKind int

const (
	// Kill abandons the acting primary without Close — connections severed,
	// journal left unsynced, exactly what kill -9 leaves. On a Pair the
	// standby must promote within its budget.
	Kill FaultKind = iota
	// LoseUnackedWindow is a Kill that lands inside the group-commit window:
	// N appends are framed but die with the batch fsync.
	LoseUnackedWindow
	// TornTail appends N bytes of a half-written frame to the killed node's
	// active segment.
	TornTail
	// Restart reboots what was killed from its directory: a Durable node as
	// itself, a Pair's ex-primary as a follower of the acting primary, a
	// Sharded plane whole.
	Restart
	// Cut partitions the network in the fault's Shape: standby→primary on a
	// Pair, coordinator→last 2PC participant on a Sharded plane.
	Cut
	// Heal clears every network rule.
	Heal
	// KillShardAfterPrepare shuts the first participant of a cross-shard
	// establish down between its prepare and the commit.
	KillShardAfterPrepare
	// Pressure caps the actor's service rate and gives establishes a
	// deadline shorter than the backlog. It shapes the boot; at its
	// position only the oracle runs.
	Pressure
	// ShutdownMidBurst shuts the server down while clients are mid-script.
	ShutdownMidBurst
	// Corrupt runs the fault's Hook: out-of-band damage the oracle must
	// catch. After it, degraded mode is no longer a violation by itself.
	Corrupt
)

func (k FaultKind) String() string {
	return [...]string{"kill", "loseUnackedWindow", "tornTail", "restart", "cut", "heal",
		"killShardAfterPrepare", "pressure", "shutdownMidBurst", "corrupt"}[k]
}

// The shapes a Cut comes in, as rules on the one directed edge that carries
// the plane's request/response traffic: nothing crosses in either direction,
// requests are lost, or requests are delivered — their side effects happen —
// and the answers are lost.
var (
	Symmetric    = netchaos.Rule{DropRequest: 1, DropResponse: 1}
	RequestDrop  = netchaos.Rule{DropRequest: 1}
	ResponseDrop = netchaos.Rule{DropResponse: 1}
)

// Fault places one fault at a script position.
type Fault struct {
	// At is the script position: the fault fires once that many ops have
	// been handed out. Faults sharing a position fire in list order.
	At   int
	Kind FaultKind
	// N sizes TornTail (bytes) and LoseUnackedWindow (appends).
	N int
	// Shape is how a Cut lies: Symmetric, RequestDrop or ResponseDrop.
	Shape netchaos.Rule
	// Hook is the Corrupt fault: dir is the acting primary's journal
	// directory, srv its server (shut down, if a Kill came first).
	Hook func(dir string, srv *server.Server) error
	// tight zeroes every bound this fault declares; the oracle self-test
	// uses it to prove clause (v) can fail.
	tight bool
}

// Episode is one row of the table: a plane, a script length, and faults.
type Episode struct {
	Name  string
	Plane Plane
	// Ops is the script length; Workers the concurrent clients sharing it
	// (0 or 1: a sequential, fully deterministic script).
	Ops, Workers int
	// SnapshotEvery is the journal snapshot cadence (0: the server's
	// default, negative: none).
	SnapshotEvery int
	Faults        []Fault
}

// Episodes is the table. Names group into families by prefix (Select).
var Episodes = []Episode{
	{Name: "mix", Plane: Single, Workers: 6, Ops: 480},
	{Name: "mix-shutdown", Plane: Single, Workers: 6, Ops: 480, Faults: []Fault{{At: 150, Kind: ShutdownMidBurst}}},
	{Name: "overload", Plane: Single, Workers: 8, Ops: 640, Faults: []Fault{{Kind: Pressure}}},
	{Name: "crash", Plane: Durable, Ops: 120, SnapshotEvery: 16,
		Faults: []Fault{{At: 60, Kind: Kill}, {At: 60, Kind: Restart}}},
	{Name: "crash-early", Plane: Durable, Ops: 80, SnapshotEvery: 16,
		Faults: []Fault{{At: 1, Kind: Kill}, {At: 1, Kind: Restart}}},
	{Name: "crash-late-torn", Plane: Durable, Ops: 100, SnapshotEvery: 16,
		Faults: []Fault{{At: 99, Kind: Kill}, {At: 99, Kind: TornTail, N: 200}, {At: 99, Kind: Restart}}},
	{Name: "crash-nosnap-window", Plane: Durable, Ops: 120, SnapshotEvery: -1,
		Faults: []Fault{{At: 90, Kind: LoseUnackedWindow, N: 12}, {At: 90, Kind: Restart}}},
	{Name: "crash-torn", Plane: Durable, Ops: 150, SnapshotEvery: 8,
		Faults: []Fault{{At: 75, Kind: Kill}, {At: 75, Kind: TornTail, N: 23}, {At: 75, Kind: Restart}}},
	{Name: "crash-window", Plane: Durable, Ops: 120, SnapshotEvery: 4,
		Faults: []Fault{{At: 17, Kind: LoseUnackedWindow, N: 6}, {At: 17, Kind: Restart}}},
	{Name: "crash-window-torn", Plane: Durable, Ops: 100, SnapshotEvery: 8,
		Faults: []Fault{{At: 50, Kind: LoseUnackedWindow, N: 6}, {At: 50, Kind: TornTail, N: 23}, {At: 50, Kind: Restart}}},
	{Name: "shard-kill", Plane: Sharded, Ops: 40,
		Faults: []Fault{{At: 30, Kind: KillShardAfterPrepare}, {At: 30, Kind: Restart}}},
	{Name: "failover", Plane: Pair, Workers: 2, Ops: 120,
		Faults: []Fault{{At: 30, Kind: Kill}, {At: 60, Kind: Restart}}},
	{Name: "partition-symmetric", Plane: Pair, Workers: 2, Ops: 60,
		Faults: []Fault{{At: 24, Kind: Cut, Shape: Symmetric}, {At: 40, Kind: Heal}}},
	{Name: "partition-request-drop", Plane: Pair, Workers: 2, Ops: 60,
		Faults: []Fault{{At: 24, Kind: Cut, Shape: RequestDrop}, {At: 40, Kind: Heal}}},
	{Name: "partition-response-drop", Plane: Pair, Workers: 2, Ops: 60,
		Faults: []Fault{{At: 24, Kind: Cut, Shape: ResponseDrop}, {At: 40, Kind: Heal}}},
	{Name: "partition-shard-request-drop", Plane: Sharded, Ops: 24,
		Faults: []Fault{{At: 12, Kind: Cut, Shape: RequestDrop}, {At: 12, Kind: Heal}}},
	{Name: "partition-shard-response-drop", Plane: Sharded, Ops: 24,
		Faults: []Fault{{At: 12, Kind: Cut, Shape: ResponseDrop}, {At: 12, Kind: Heal}}},
}

// Select returns the rows called name or belonging to the family name-*;
// "all" selects the whole table.
func Select(name string) []Episode {
	var rows []Episode
	for _, ep := range Episodes {
		if name == "all" || ep.Name == name || strings.HasPrefix(ep.Name, name+"-") {
			rows = append(rows, ep)
		}
	}
	return rows
}

// world is one running episode.
type world struct {
	ep   Episode
	seed uint64
	dir  string
	g    *topology.Graph
	mcfg manager.Config
	net  *netchaos.Network

	// mu guards who the clients talk to: acting indexes nodes (server
	// planes), reign counts the promotions so far.
	mu     sync.Mutex
	nodes  []*node
	acting int
	reign  int
	coord  *shard.Coordinator // Sharded only; nodes are views of its shards

	quiet   sync.RWMutex // ops hold it shared, the oracle exclusively
	faultMu sync.Mutex   // faults fire one at a time
	over    atomic.Bool  // ShutdownMidBurst: the plane is not coming back

	led      *ledger
	history  map[string]*journal.Recovered // journal dir → what it held, all acknowledged, when last captured
	torn     bool                          // a TornTail awaits its Restart
	injected bool                          // a Corrupt hook ran

	// links is how many links the generator may fail: link faults are
	// scripted where one server answers them, because its FailureReport
	// tells the ledger exactly which acknowledged connections it dropped.
	links int

	// Pressure: whether the episode runs under it, and what its bounds are
	// judged on — deadlines that died, terminations that completed,
	// forecast reads that were served.
	pressure                  bool
	expired, freed, forecasts atomic.Int64

	fingerprint string // the live nodes' state digests as of the last judgment
}

// Run executes the episode under seed in dir, which must be empty; it owns
// everything it creates there. A nil error means every oracle clause held
// after every restart and promotion and at the end, and every fault met its
// bound; fingerprint is then the state digest of the plane's live nodes.
func (ep Episode) Run(seed uint64, dir string) (fingerprint string, err error) {
	w, err := ep.start(seed, dir)
	if err == nil {
		defer w.stop()
		if err = w.script(); err == nil && !w.over.Load() {
			err = w.judge("the episode")
		}
	}
	if err != nil {
		return "", fmt.Errorf("chaos: %s (seed %d): %w", ep.Name, seed, err)
	}
	return w.fingerprint, nil
}

// start builds the episode's world and boots its plane.
func (ep Episode) start(seed uint64, dir string) (*world, error) {
	w := &world{
		ep: ep, seed: seed, dir: dir,
		mcfg:    manager.Config{Capacity: capacityKbps},
		net:     netchaos.New(seed ^ 0x5bf03635),
		led:     &ledger{gone: make(map[int64]bool), down: make(map[int]bool), last: make(map[int]time.Time)},
		history: make(map[string]*journal.Recovered),
	}
	for _, f := range ep.Faults {
		if f.At < 0 || f.At > ep.Ops {
			return nil, fmt.Errorf("fault %s at %d is outside the script (0..%d)", f.Kind, f.At, ep.Ops)
		}
		w.pressure = w.pressure || f.Kind == Pressure
	}
	var err error
	if ep.Plane == Sharded {
		w.g, err = topology.TransitStub(rng.New(seed + 0x9e3779b97f4a7c15))
	} else {
		w.g, err = waxman(24, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	if ep.Plane == Single || ep.Plane == Durable {
		w.links = w.g.NumLinks()
	}
	if err = w.boot(0, ""); err == nil && ep.Plane == Pair {
		err = w.boot(1, w.nodes[0].http.URL)
		// A primary no standby has streamed from yet acks asynchronously,
		// so a kill before the stream opens loses acknowledged writes by
		// design: the script starts once the pair is formed.
		if err == nil && !await(convergeWithin, func() bool { return w.nodes[0].rep.StatsBlock().Followers == 1 }) {
			err = fmt.Errorf("standby never streamed from the primary within %s", convergeWithin)
		}
	}
	if err != nil {
		w.stop()
		return nil, err
	}
	return w, nil
}

// script runs the clients over the shared script; the watchdog turns a
// wedge into a verdict.
func (w *world) script() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := max(1, w.ep.Workers)
	var pos atomic.Int64
	errc := make(chan error, workers)
	for k := 0; k < workers; k++ {
		go func(k int) { errc <- w.client(ctx, k, &pos) }(k)
	}
	watchdog := time.After(wedgeAfter)
	var first error
	for k := 0; k < workers; k++ {
		select {
		case err := <-errc:
			if err != nil && first == nil {
				first = err
				cancel()
			}
		case <-watchdog:
			return fmt.Errorf("oracle (v): episode wedged: clients still blocked after %s", wedgeAfter)
		}
	}
	if first == nil && w.pressure {
		first = w.relieved()
	}
	return first
}

// client is one closed-loop client. Script positions are handed out from a
// shared counter; the client that draws a fault's position injects it while
// the others keep going — that is what places a fault mid-burst. Position
// Ops is the slot for faults after the last op.
func (w *world) client(ctx context.Context, k int, pos *atomic.Int64) error {
	src := rng.New(w.seed ^ (uint64(k)+1)*0xbf58476d1ce4e5b9)
	for ctx.Err() == nil {
		i := int(pos.Add(1)) - 1
		if i > w.ep.Ops {
			break
		}
		for _, f := range w.ep.Faults {
			if f.At == i {
				if err := w.inject(f); err != nil {
					return err
				}
			}
		}
		if i == w.ep.Ops || w.over.Load() {
			break
		}
		if src.Float64() < 0.1 {
			w.read(ctx)
		}
		ev := nextEvent(src, w.led.population(w.g.NumNodes(), w.links))
		if err := w.do(ctx, ev); err != nil {
			return fmt.Errorf("client %d op %d (%s): %w", k, i, ev, err)
		}
	}
	return nil
}

// do carries one op to an answer, the way a client with an endpoint list
// does: a node that cannot take it right now (closed, follower, fenced) is
// retried until the plane has a primary again; a deadline that died or an
// overload refusal is an answer — the client gave up.
func (w *world) do(ctx context.Context, ev journal.Event) error {
	for {
		err := w.attempt(ctx, ev)
		switch {
		case err == nil || refused(err) || ctx.Err() != nil || w.over.Load():
			return nil
		case errors.Is(err, context.DeadlineExceeded):
			w.expired.Add(1)
			return nil
		case errors.Is(err, server.ErrOverloaded):
			time.Sleep(pressureDeadline) // a shed client backs off before its next request
			return nil
		case unavailable(err):
			time.Sleep(2 * time.Millisecond)
		default:
			return err
		}
	}
}

// refused reports a clean domain answer: the op was not applied, for a
// reason that is part of any random interleaving.
func refused(err error) bool {
	return errors.Is(err, manager.ErrRejected) || errors.Is(err, server.ErrNotFound) ||
		errors.Is(err, server.ErrConflict) || errors.Is(err, shard.ErrNoRoute)
}

// unavailable reports a node that cannot serve mutations right now.
func unavailable(err error) bool {
	return errors.Is(err, server.ErrServerClosed) || errors.Is(err, server.ErrNotPrimary) ||
		errors.Is(err, server.ErrFenced) || errors.Is(err, server.ErrJournal) ||
		errors.Is(err, journal.ErrAbandoned) || errors.Is(err, shard.ErrShardUnavailable)
}

// attempt sends one op to the acting primary and enters the answer in the
// ledger. A terminate that fails any other way than a clean refusal may or
// may not have been applied; its connection leaves the acked-alive set
// either way.
func (w *world) attempt(ctx context.Context, ev journal.Event) error {
	w.quiet.RLock()
	defer w.quiet.RUnlock()
	n, reign := w.primary()
	switch ev.Kind {
	case journal.KindEstablish:
		if w.pressure {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, pressureDeadline)
			defer cancel()
		}
		t, err := w.establish(ctx, n, ev)
		if err == nil {
			w.led.told(ev, t, reign)
		}
		return err
	case journal.KindTerminate:
		var err error
		if w.coord != nil {
			err = w.coord.Terminate(ctx, ev.Conn)
		} else {
			_, err = n.srv.Terminate(ctx, channel.ConnID(ev.Conn))
		}
		if err == nil {
			w.freed.Add(1)
		}
		if err == nil || !refused(err) {
			w.led.lose(channel.ConnID(ev.Conn))
		}
		return err
	case journal.KindFailLink:
		rep, err := n.srv.FailLink(ctx, topology.LinkID(ev.Link))
		if err == nil {
			w.led.setLink(int(ev.Link), true)
			w.led.lose(rep.Dropped...)
		}
		return err
	default:
		_, err := n.srv.RepairLink(ctx, topology.LinkID(ev.Link))
		if err == nil {
			w.led.setLink(int(ev.Link), false)
		}
		return err
	}
}

// read is the observability traffic riding beside the script: stats,
// audits and forecast reads must stay live whatever the mutation lanes are
// doing.
func (w *world) read(ctx context.Context) {
	w.quiet.RLock()
	defer w.quiet.RUnlock()
	n, _ := w.primary()
	_, _ = n.srv.Snapshot(ctx)
	_ = n.srv.CheckInvariants(ctx)
	if fc := n.srv.Forecaster(); fc != nil {
		fc.Current()
		w.forecasts.Add(1)
	}
}

// establish speaks to whichever front the plane has — the acting primary's
// server or the shard coordinator — and returns what the client was told.
func (w *world) establish(ctx context.Context, n *node, ev journal.Event) (told, error) {
	src, dst, spec := topology.NodeID(ev.Src), topology.NodeID(ev.Dst), manager.EventSpec(ev)
	if w.coord != nil {
		res, err := w.coord.Establish(ctx, src, dst, spec)
		if err != nil {
			return told{}, err
		}
		t := told{id: res.ID, kbps: int64(res.AllocatedKbps)}
		if res.Report != nil {
			t.level, t.backup = res.Report.Conn.Level, res.Report.Conn.HasBackup
		}
		return t, nil
	}
	rep, err := n.srv.Establish(ctx, src, dst, spec)
	if err != nil {
		return told{}, err
	}
	c := rep.Conn
	return told{id: int64(c.ID), level: c.Level, kbps: int64(c.Bandwidth()), backup: c.HasBackup}, nil
}
