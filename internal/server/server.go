// Package server turns the single-threaded manager.Manager into a
// long-running concurrent admission service. The manager is not safe for
// concurrent use, so the Server runs it behind an actor-style command loop:
// exactly one goroutine owns the manager and executes commands submitted
// over buffered channels, while any number of client goroutines call
// Establish / Terminate / FailLink / RepairLink / Snapshot concurrently.
//
// The command queue is the server's own overload control plane, applying
// the paper's elastic-QoS discipline to the request stream itself:
//
//   - Priority lanes: commands are split into capacity-FREEING work
//     (terminate, repair, recovery swaps, reads) and capacity-CONSUMING
//     work (establish, fail injection), drained strictly freeing-first.
//     Releasing bandwidth is what lets degraded connections climb back
//     toward Bmax, so under pressure the work that frees capacity — and
//     the reads that let operators see what is happening — never queues
//     behind a backlog of new admissions.
//   - Deadline propagation: every command carries its caller's context and
//     enqueue time. The loop sheds commands whose caller has already given
//     up instead of executing dead work (counted per reason in
//     drqos_shed_total), so a wedged burst cannot force the manager to
//     churn through requests nobody is waiting for.
//   - Adaptive shedding: per-command queueing delay feeds a CoDel-style
//     detector (internal/overload); sustained delay above target latches
//     an "overloaded" state in which new capacity-consuming work is
//     refused before it may queue (ErrOverloaded; 503 + Retry-After over
//     HTTP) while reads and terminations stay live.
//
// Command semantics: a call that returns a nil or domain error was applied
// to the manager exactly once. A call that returns the context's error was
// NOT applied if the loop shed it before execution; in the unavoidable race
// where the deadline expires at execution time, it may have been applied
// with the result discarded — the same ambiguity any timed-out RPC has.
// ErrServerClosed means the command was never accepted. Shutdown stops
// admission, drains every accepted command (shedding the expired ones), and
// only then stops the loop.
//
// Every mutation takes one write path — pipeline.go decides how it is
// guarded, journaled, applied, published and acknowledged; transition.go is
// the only code that says what an event does to a manager. With
// Options.Journal set that path is write-ahead: every mutating command is
// appended to the journal — after its validity pre-checks, before the
// manager mutates — and a snapshot of the manager's durable state is
// written every SnapshotEvery journaled events to bound replay. recovery.go
// adds the supervised exit from degraded mode: a rebuilt-and-audited
// manager is atomically swapped into the command loop.
//
// The HTTP layer in http.go exposes the same operations as a JSON API plus
// Prometheus-style /metrics and /healthz + /readyz probes; cmd/drserverd
// wires it to a listener and cmd/drload exercises it under concurrent load.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drqos/internal/channel"
	"drqos/internal/forecast"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/overload"
	"drqos/internal/qos"
	"drqos/internal/stats"
	"drqos/internal/topology"
)

// ErrServerClosed reports that the command loop no longer accepts commands.
var ErrServerClosed = errors.New("server: closed")

// ErrDegraded reports that the service detected a manager invariant
// violation and now refuses mutating commands (Establish / Terminate /
// FailLink / RepairLink). Reads — Snapshot, CheckInvariants, the HTTP GET
// endpoints — keep working, so operators can inspect the corrupted state:
// the daemon degrades instead of dying. Mapped to HTTP 503. A journaled
// server can leave degraded mode through Recover (POST /v1/admin/recover).
var ErrDegraded = errors.New("server: degraded after invariant violation, mutations refused")

// ErrOverloaded reports that sustained actor-queue delay latched the
// overloaded state: new capacity-consuming work (establish, fail injection,
// 2PC prepare) is refused before it queues while reads and capacity-freeing
// work stay live. Mapped to HTTP 503 + Retry-After.
var ErrOverloaded = errors.New("server: overloaded, retry later")

// ErrNotFound reports an operation against an unknown connection or link.
var ErrNotFound = errors.New("server: not found")

// ErrConflict reports an operation that contradicts current state, e.g.
// failing an already-failed link.
var ErrConflict = errors.New("server: conflict")

// ErrNotPrimary reports a mutation against a replica running in the
// follower role: followers serve reads and apply the primary's stream, but
// never originate mutations — a fenced ex-primary answering this instead
// of silently accepting writes is what keeps split-brain off the table.
// Mapped to HTTP 503 (the daemon's front layer additionally answers 307
// with the primary's address when it knows one).
var ErrNotPrimary = errors.New("server: not primary, mutations refused in follower role")

// ErrFenced reports a mutation the primary could not safely acknowledge
// because its standby-granted replication lease lapsed (a partition, or a
// standby that stopped confirming): the write may not reach a standby that
// is about to promote, so acking it would lose it across the failover.
// Unlike ErrNotPrimary this is a primary-side refusal — the node keeps its
// role and resumes the moment a standby confirms again. Mapped to HTTP 503
// + Retry-After (retryable: the client's next attempt lands after the
// lease renews or on the promoted standby).
var ErrFenced = errors.New("server: replication lease lost, mutation not acknowledged")

// ErrUnavailable reports that a participant the request needs is not
// answering now, so it was refused without waiting on it. Mapped to HTTP 503
// + Retry-After; the sharded plane's suspected-shard refusal wraps it.
var ErrUnavailable = errors.New("server: participant unavailable, retry later")

// lane identifies which priority queue a command rides.
type lane int

const (
	// laneFreeing carries capacity-freeing and observability work:
	// terminate, repair, recovery swaps, snapshots, audits. Always drained
	// before laneConsuming.
	laneFreeing lane = iota
	// laneConsuming carries capacity-consuming work: establish and fail
	// injection.
	laneConsuming
)

func (l lane) String() string {
	if l == laneFreeing {
		return "freeing"
	}
	return "consuming"
}

// command is one unit of actor-loop work: the closure plus the caller's
// context (for expired-work shedding) and enqueue time (for queue-delay
// accounting).
type command struct {
	ctx      context.Context
	fn       func(*manager.Manager)
	enqueued time.Time
}

// Options tunes the command loop.
type Options struct {
	// QueueDepth is the per-lane command-channel buffer (default 256). A
	// deeper queue absorbs burstier arrivals at the cost of tail latency.
	QueueDepth int
	// Overload tunes the sustained-queue-delay detector that latches the
	// overloaded state. Zero selects the defaults (100ms target, 1s
	// interval).
	Overload overload.DetectorConfig
	// ExecDelay adds an artificial pause before each executed command.
	// Zero in production (no flag sets it); overload tests and the chaos
	// harness use it to make queueing delay — and therefore shedding —
	// deterministic.
	ExecDelay time.Duration
	// Journal, when non-nil, makes every mutation durable: commands are
	// appended (write-ahead) before the manager applies them. The server
	// takes ownership of snapshot writing but NOT of Close — the daemon
	// closes the journal after Shutdown has drained the loop. Open sets it
	// to the journal it opens.
	Journal *journal.Journal
	// SnapshotEvery writes a state snapshot after this many journaled
	// events (default 1024; negative disables snapshots).
	SnapshotEvery int
	// AutoRecover starts a background supervisor when an invariant
	// violation degrades a journaled server: it retries Recover with capped
	// exponential backoff until it succeeds or the server shuts down. False
	// means manual-only (POST /v1/admin/recover).
	AutoRecover bool
	// Follower starts the server in the follower role: every mutating
	// command answers ErrNotPrimary, and state advances only through
	// ApplyReplicated (the primary's journal stream) until Promote flips
	// the role. The zero value starts a primary, which is every
	// non-replicated deployment.
	Follower bool
	// WaitReplicated, when non-nil, is called after a mutation's journal
	// record became locally durable and before the client is acknowledged,
	// with the record's sequence number. The replication shipper uses it
	// for semi-synchronous mode: block (bounded) until a standby has
	// the record durably applied, so an acknowledged mutation survives losing the
	// primary. Zero-cost when replication is off (nil hook).
	WaitReplicated func(ctx context.Context, seq uint64) error
	// AnnotateSnapshot, when non-nil, runs on every snapshot header just
	// before it is written, so outer planes can persist their own crash-safe
	// counters (the shard coordinator journals its cross-shard txn counters
	// this way).
	AnnotateSnapshot func(hdr *journal.SnapshotHeader)
	// ReplicaStats, when non-nil, supplies the replication block served
	// under /v1/stats and /metrics (lag, peer liveness). The server fills
	// the role/term/promotion fields itself.
	ReplicaStats func() *ReplicaStats
	// Forecast, when non-nil, runs the live analytic control plane
	// (internal/forecast): every applied establish / terminate / fail-link
	// event feeds the online parameter estimator, the Markov chain is
	// re-solved on Forecast.Interval off the actor loop, and the HTTP
	// layer serves /v1/forecast and /v1/forecast/whatif. With
	// Forecast.Predictive the solved model additionally drives the
	// overload detector's predictive latch (the server sets OnPredict).
	Forecast *forecast.Config
}

// Server owns a manager.Manager behind a single-goroutine command loop.
type Server struct {
	graph *topology.Graph
	cfg   manager.Config // defaults-applied; recovery rebuilds from it

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // submits past the closed-check, not yet enqueued

	freeing   chan command // terminate / repair / admin / reads
	consuming chan command // establish / fail injection
	loopDone  chan struct{}
	stop      chan struct{} // closed on Shutdown; halts the recovery supervisor

	// mgr is owned by the loop goroutine: it is written at construction
	// (before the loop starts) and by the recovery swap command (which runs
	// in the loop), and read only by the loop.
	mgr *manager.Manager

	// txns is the cross-shard transaction table (txn.go). Loop-owned, like
	// mgr: written at construction and by loop commands only.
	txns *TxnTable

	// Overload control plane. detector is internally synchronized; the
	// loop writes the lane delay histograms and any goroutine reads them.
	detector       *overload.Detector
	execDelay      time.Duration
	delayFreeing   stats.Latency
	delayConsuming stats.Latency
	shedExpired    atomic.Int64
	shedCanceled   atomic.Int64

	// Durability. jnl is nil for an in-memory server. eventsSinceSnap is
	// loop-owned.
	jnl             *journal.Journal
	snapshotEvery   int
	eventsSinceSnap int
	journalErrors   atomic.Int64

	// Epoch view (epoch.go): the published pointer is read by anyone;
	// epochSeq is loop-owned. capacityKbps is immutable after construction
	// so StatsView can report it off-loop.
	view           atomic.Pointer[EpochView]
	epochSeq       uint64
	epochPublishes atomic.Int64
	capacityKbps   int64

	// Degraded mode: set by the loop goroutine on the first detected
	// invariant violation, read by anyone. The reason is written under
	// degradedMu strictly before the flag flips, so any reader that
	// observes degraded==true sees a populated reason.
	degraded            atomic.Bool
	degradedMu          sync.Mutex
	degradedReason      string
	invariantViolations atomic.Int64

	// Live analytic control plane (forecast.go); nil when disabled. The
	// loop goroutine feeds it, its own goroutine solves, readers are
	// lock-free.
	fc *forecast.Forecaster

	// Replication role state (replication.go). follower and term are read
	// on every mutation's guard and flipped only by loop commands (Promote /
	// Demote / ApplyReplicated observing a KindTerm record); the hooks are
	// immutable after construction.
	follower         atomic.Bool
	term             atomic.Uint64
	promotions       atomic.Int64
	waitReplicated   func(ctx context.Context, seq uint64) error
	annotateSnapshot func(hdr *journal.SnapshotHeader)
	replicaStats     func() *ReplicaStats

	// Recovery state (recovery.go).
	autoRecover      bool
	recovering       atomic.Bool
	recoveries       atomic.Int64
	recoveryFailures atomic.Int64
	lastRecoveryMu   sync.Mutex
	lastRecoveryErr  string

	// Counters, written by the loop goroutine, read by anyone.
	processed   atomic.Int64
	establishes atomic.Int64
	terminates  atomic.Int64
	failures    atomic.Int64
	repairs     atomic.Int64
	snapshots   atomic.Int64
	// What executed link failures did to their victims (FailureOutcomes).
	activated   atomic.Int64
	dropped     atomic.Int64
	recovered   atomic.Int64
	backupsLost atomic.Int64
}

// Open is how a node comes up, first start or restart: it opens the
// journal in dir ("" runs in memory; opt.Journal is ignored), rebuilds the
// manager and transaction table from it, installs them with the journal's
// fencing term and starts the loop. It answers what the journal held; the
// journal's Close, after Shutdown, stays the caller's.
func Open(g *topology.Graph, cfg manager.Config, dir string, jopt journal.Options, opt Options) (_ *Server, rec *journal.Recovered, err error) {
	rec, opt.Journal = &journal.Recovered{}, nil
	if dir != "" {
		if opt.Journal, rec, err = journal.Open(dir, jopt); err != nil {
			return nil, nil, fmt.Errorf("opening journal %s: %w", dir, err)
		}
	}
	m, txns, err := Rebuild(g, cfg, rec)
	if err != nil {
		if opt.Journal != nil {
			opt.Journal.Close()
		}
		return nil, nil, err
	}
	return start(g, m, txns, rec.Term, opt), rec, nil
}

// NewFromManager starts a Server around mgr, with an empty transaction
// table at term 0. The manager must not be touched by the caller afterwards.
func NewFromManager(g *topology.Graph, mgr *manager.Manager, opt Options) (*Server, error) {
	return start(g, mgr, &TxnTable{}, 0, opt), nil
}

// start builds a Server, installs its state and starts its command loop.
func start(g *topology.Graph, mgr *manager.Manager, txns *TxnTable, term uint64, opt Options) *Server {
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	snapEvery := opt.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 1024
	}
	s := &Server{
		graph:         g,
		cfg:           mgr.Config(),
		freeing:       make(chan command, depth),
		consuming:     make(chan command, depth),
		loopDone:      make(chan struct{}),
		stop:          make(chan struct{}),
		detector:      overload.NewDetector(opt.Overload, nil),
		execDelay:     opt.ExecDelay,
		jnl:           opt.Journal,
		snapshotEvery: snapEvery,
		autoRecover:   opt.AutoRecover,
		capacityKbps:  int64(mgr.Network().Capacity()),

		waitReplicated:   opt.WaitReplicated,
		annotateSnapshot: opt.AnnotateSnapshot,
		replicaStats:     opt.ReplicaStats,
	}
	s.follower.Store(opt.Follower)
	s.install(mgr, txns, term)
	// Epoch 1 is published before the loop starts, so View never returns
	// nil and a freshly booted (or journal-recovered) server serves its
	// state without waiting for the first mutation.
	s.publishEpoch(mgr)
	if opt.Forecast != nil {
		fcfg := *opt.Forecast
		if fcfg.CapacityKbps <= 0 {
			fcfg.CapacityKbps = mgr.Network().Capacity()
		}
		if fcfg.DirectedLinks <= 0 {
			fcfg.DirectedLinks = g.NumDirLinks()
		}
		if fcfg.Predictive {
			fcfg.OnPredict = func(saturated bool) { s.detector.SetPredicted(saturated) }
		}
		s.fc = forecast.New(fcfg)
		s.fc.Start()
	}
	go s.loop()
	return s
}

// install makes a rebuilt state the server's: the manager, its transaction
// table and its journal's fencing term (never lowering the one held). Boot
// runs it before the loop starts, recovery inside a loop command.
func (s *Server) install(m *manager.Manager, txns *TxnTable, term uint64) {
	if term > s.term.Load() {
		s.term.Store(term)
	}
	s.mgr, s.txns = m, txns
	s.eventsSinceSnap = 0
}

// Journal returns the journal the server writes (nil in memory).
func (s *Server) Journal() *journal.Journal { return s.jnl }

// loop is the only goroutine that ever touches the manager. Freeing-lane
// commands are drained strictly before consuming-lane ones: each iteration
// first polls the freeing lane without blocking, and only when it is empty
// waits on both. The loop re-reads s.mgr every command so a recovery swap
// (which assigns s.mgr from inside a command) takes effect immediately.
func (s *Server) loop() {
	defer close(s.loopDone)
	freeing, consuming := s.freeing, s.consuming
	for freeing != nil || consuming != nil {
		select {
		case cmd, ok := <-freeing:
			if !ok {
				freeing = nil
				continue
			}
			s.run(cmd, laneFreeing)
			continue
		default:
		}
		select {
		case cmd, ok := <-freeing:
			if !ok {
				freeing = nil
				continue
			}
			s.run(cmd, laneFreeing)
		case cmd, ok := <-consuming:
			if !ok {
				consuming = nil
				continue
			}
			s.run(cmd, laneConsuming)
		}
	}
}

// run executes one dequeued command: account its queueing delay, shed it if
// the caller has already given up, otherwise apply it to the manager.
func (s *Server) run(cmd command, l lane) {
	delay := time.Since(cmd.enqueued)
	if l == laneFreeing {
		s.delayFreeing.Observe(delay)
	} else {
		s.delayConsuming.Observe(delay)
		// Only consuming-lane delay drives the overload detector: freeing
		// work jumps the queue by design, so its (always small) delay says
		// nothing about the backlog admission control must react to.
		if over, changed := s.detector.Observe(delay); changed && over {
			slog.Warn("overloaded: sustained queue delay above target, refusing new establishes with 503; terminations and reads stay live")
		} else if changed {
			slog.Info("overload cleared: queue delay back under target, admitting establishes again")
		}
	}
	if err := cmd.ctx.Err(); err != nil {
		// The caller gave up while the command sat in the queue: executing
		// it now would mutate state nobody is waiting for (and, journaled,
		// persist it). Drop it, counted per reason.
		if errors.Is(err, context.DeadlineExceeded) {
			s.shedExpired.Add(1)
		} else {
			s.shedCanceled.Add(1)
		}
		return
	}
	if s.execDelay > 0 {
		time.Sleep(s.execDelay)
	}
	cmd.fn(s.mgr)
	s.processed.Add(1)
}

// QueueDepth returns the number of commands currently buffered across both
// lanes.
func (s *Server) QueueDepth() int { return len(s.freeing) + len(s.consuming) }

// Processed returns the number of commands the loop has executed (shed
// commands are counted separately — see Sheds).
func (s *Server) Processed() int64 { return s.processed.Load() }

// Sheds returns how many queued commands the loop dropped without executing
// because their caller's context had expired (deadline) or been canceled.
func (s *Server) Sheds() (expired, canceled int64) {
	return s.shedExpired.Load(), s.shedCanceled.Load()
}

// Overloaded reports whether sustained consuming-lane queue delay has
// latched the overloaded state. The HTTP layer refuses new capacity-
// consuming work while it holds. The latch self-clears once the consuming
// lane has fully drained and stayed silent for a detector interval.
func (s *Server) Overloaded() bool { return s.detector.Overloaded(len(s.consuming)) }

// OverloadEpisodes returns how many times the overloaded state has latched.
func (s *Server) OverloadEpisodes() int64 { return s.detector.Episodes() }

// Degraded reports whether the service is refusing mutations after an
// invariant violation, and the first violation's description.
func (s *Server) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return true, s.degradedReason
}

// noteViolation inspects an event handler's error for an invariant
// violation and, on the first one, flips the server into degraded mode.
// Only the loop goroutine calls it. With AutoRecover on a journaled server,
// flipping also starts the background recovery supervisor.
func (s *Server) noteViolation(err error) {
	var iv *manager.InvariantViolation
	if err == nil || !errors.As(err, &iv) {
		return
	}
	if s.latchDegraded(iv.Error()) && s.autoRecover && s.jnl != nil {
		go s.superviseRecovery()
	}
}

// latchDegraded counts a violation and, on the first one of an episode,
// flips the server into degraded mode and logs it; it reports whether this
// call flipped it. The invariant checker and a replication divergence
// latch through it, so promotion, mutations and epoch publishing all refuse
// through the one mechanism. Loop goroutine only.
func (s *Server) latchDegraded(reason string) bool {
	s.invariantViolations.Add(1)
	s.degradedMu.Lock()
	if s.degradedReason == "" {
		s.degradedReason = reason
	}
	s.degradedMu.Unlock()
	if !s.degraded.CompareAndSwap(false, true) {
		return false
	}
	slog.Error("degraded: refusing mutations, still serving reads", "reason", reason, "journaled", s.jnl != nil)
	return true
}

// refuseIfDegraded is the guard every mutating command runs first: once the
// manager's state is untrusted, no further event may touch it.
func (s *Server) refuseIfDegraded() error {
	if ok, reason := s.Degraded(); ok {
		return fmt.Errorf("%w: %s", ErrDegraded, reason)
	}
	return nil
}

// journalAppend persists ev before the mutation it describes (write-ahead
// discipline). A nil journal is a no-op (seq 0). On an append error the
// caller must NOT apply the mutation: the command fails with ErrJournal
// instead of executing undurably.
//
// The write is asynchronous with respect to durability: in group-commit
// mode the record is on disk but possibly not yet fsynced when this
// returns. The loop may apply the mutation and move on — streaming writes
// while the committer batches fsyncs — but the caller's acknowledgment is
// gated on waitDurable(seq), so no client ever observes success for a
// mutation whose record could still be lost.
func (s *Server) journalAppend(ev journal.Event) (uint64, error) {
	if s.jnl == nil {
		return 0, nil
	}
	seq, err := s.jnl.AppendAsync(ev)
	if err != nil {
		s.journalErrors.Add(1)
		return 0, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	s.eventsSinceSnap++
	return seq, nil
}

// waitDurable blocks the calling (per-request) goroutine until the
// journaled record seq is durable. Runs outside the loop: the actor keeps
// executing commands while acknowledgments wait on the committer's next
// fsync batch. No-op for unjournaled servers, seq 0, or non-group-commit
// journals (Append was already durable inline there).
func (s *Server) waitDurable(ctx context.Context, seq uint64) error {
	if s.jnl == nil || seq == 0 {
		return nil
	}
	if err := s.jnl.WaitDurable(ctx, seq); err != nil {
		if ctx.Err() != nil {
			// The caller gave up first; the mutation may or may not have
			// become durable — the usual timed-out-RPC ambiguity.
			return ctx.Err()
		}
		s.journalErrors.Add(1)
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	// Semi-synchronous replication rides behind local durability: the
	// shipper's hook blocks (bounded) until a live standby acknowledged the
	// record, so losing the primary right after this acknowledgment still
	// cannot lose the mutation. The hook itself degrades to async when no
	// standby is streaming.
	if s.waitReplicated != nil && !s.follower.Load() {
		if err := s.waitReplicated(ctx, seq); err != nil {
			return err
		}
	}
	return nil
}

// maybeSnapshot writes a durable snapshot once enough events accumulated
// since the last one. Runs in the loop after a journaled command applied.
// Degraded state is never snapshotted: the journal must keep describing the
// last trusted state so recovery can rebuild it.
func (s *Server) maybeSnapshot(m *manager.Manager) {
	if s.jnl == nil || s.snapshotEvery <= 0 || s.eventsSinceSnap < s.snapshotEvery {
		return
	}
	if s.degraded.Load() {
		return
	}
	// Never snapshot while a cross-shard transaction is pending: a prepare
	// and its commit must land on the same side of the snapshot boundary,
	// so replay of a KindCommit always finds its transaction (either live
	// in the journal suffix or committed in the snapshot header).
	if s.txns.pending() {
		return
	}
	if err := s.writeSnapshot(m); err != nil {
		// The WAL is still intact and replay still works — a failed
		// snapshot costs replay time, not correctness. Counted, retried on
		// the next journaled event.
		s.journalErrors.Add(1)
		return
	}
	s.eventsSinceSnap = 0
}

// writeSnapshot exports the manager's durable state and hands it to the
// journal, with the aggregate cross-check fields the restore path verifies.
func (s *Server) writeSnapshot(m *manager.Manager) error {
	hdr := m.SnapshotHeader()
	// Committed transactions ride the header so replay from this snapshot
	// rebuilds the table (the prepare/commit records are behind the
	// boundary). Built only when non-empty: single-shard snapshots stay
	// byte-identical to the pre-shard format.
	if len(s.txns.byID) > 0 {
		txns := make([]journal.TxnSnapshot, 0, len(s.txns.byID))
		for id, tx := range s.txns.byID {
			ts := journal.TxnSnapshot{Txn: id, Peers: tx.Peers}
			for _, c := range tx.Conns {
				ts.Conns = append(ts.Conns, int64(c))
			}
			txns = append(txns, ts)
		}
		sort.Slice(txns, func(i, j int) bool { return txns[i].Txn < txns[j].Txn })
		hdr.Txns = txns
	}
	// So does the transaction high-water mark (zero, and so absent, on a
	// single-shard plane): the table forgets finished transactions.
	hdr.TxnHigh = s.txns.high
	// The current fencing term rides every snapshot so a replica restarted
	// from compacted history still knows which term it last observed.
	hdr.Term = s.term.Load()
	if s.annotateSnapshot != nil {
		s.annotateSnapshot(&hdr)
	}
	return s.jnl.WriteSnapshot(hdr, m.ExportState().MarshalBinary())
}

// submit enqueues fn on lane l. The context governs both the enqueue wait
// and — unless critical — the command's life in the queue: the loop sheds
// it unexecuted if ctx dies first. Critical commands (the recovery swap)
// carry a background context so an accepted swap always runs. It returns
// ErrServerClosed after Shutdown began, or ctx's error if the queue stays
// full past the caller's deadline.
func (s *Server) submit(ctx context.Context, l lane, critical bool, fn func(*manager.Manager)) error {
	// A dead context must never mutate the manager: when both cases of the
	// select below are ready, Go picks uniformly at random, so an already-
	// cancelled caller could still enqueue. Check cancellation first.
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	cmdCtx := ctx
	if critical {
		cmdCtx = context.Background()
	}
	cmd := command{ctx: cmdCtx, fn: fn, enqueued: time.Now()}
	ch := s.freeing
	if l == laneConsuming {
		ch = s.consuming
	}
	select {
	case ch <- cmd:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown stops accepting commands, waits for every accepted command to
// execute (or be shed, if its caller's context expired), and stops the
// loop. It is safe to call multiple times; calls after the first wait for
// the same drain. The context bounds the wait. The journal (if any) is NOT
// closed — the daemon owns that, after the drain guarantees no more
// appends.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		close(s.stop)
		// In-flight submits have either enqueued or aborted once Wait
		// returns; no new submit can start, so closing the lanes is safe
		// and the loop drains the remaining buffers before exiting.
		s.inflight.Wait()
		close(s.freeing)
		close(s.consuming)
		if s.fc != nil {
			// Stop the solve loop after admission stopped; the last
			// forecast stays readable for post-shutdown inspection.
			s.fc.Stop()
		}
	}
	select {
	case <-s.loopDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Establish admits a DR-connection from src to dst with the given elastic
// spec (§3.1 arrival handling) and returns the manager's arrival report.
// Establish rides the capacity-consuming lane.
func (s *Server) Establish(ctx context.Context, src, dst topology.NodeID, spec qos.ElasticSpec) (*manager.ArrivalReport, error) {
	res, err := s.mutate(ctx, mutation{lane: laneConsuming, counter: &s.establishes, event: manager.EstablishEvent(src, dst, spec)})
	return res.Arrival, err
}

// Terminate releases connection id and returns the termination report.
// Terminate rides the capacity-freeing lane and is never refused for
// overload: releasing bandwidth is what ends an overload.
func (s *Server) Terminate(ctx context.Context, id channel.ConnID) (*manager.TerminationReport, error) {
	res, err := s.mutate(ctx, mutation{lane: laneFreeing, counter: &s.terminates, event: manager.TerminateEvent(id)})
	return res.Termination, err
}

// FailLink injects a failure of link l and returns the failure report.
// Fault injection consumes capacity (backup activation, squeezing), so it
// rides the consuming lane.
func (s *Server) FailLink(ctx context.Context, l topology.LinkID) (*manager.FailureReport, error) {
	res, err := s.mutate(ctx, mutation{lane: laneConsuming, counter: &s.failures, event: manager.LinkEvent(journal.KindFailLink, l)})
	return res.Failure, err
}

// RepairLink marks link l repaired and returns how many connections were
// re-protected. Repair frees capacity, so it rides the freeing lane.
func (s *Server) RepairLink(ctx context.Context, l topology.LinkID) (int, error) {
	res, err := s.mutate(ctx, mutation{lane: laneFreeing, counter: &s.repairs, event: manager.LinkEvent(journal.KindRepairLink, l)})
	return res.Restored, err
}

// CheckInvariants runs the manager's full consistency audit in the loop.
// It stays available in degraded mode (it is a read), and a dirty audit
// itself flips the server to degraded: discovering corruption is as
// disqualifying as causing it.
func (s *Server) CheckInvariants(ctx context.Context) error {
	return s.do(ctx, false, s.audit)
}

// audit is CheckInvariants inside the loop.
func (s *Server) audit(m *manager.Manager) error {
	err := m.CheckInvariants()
	s.noteViolation(err)
	return err
}
