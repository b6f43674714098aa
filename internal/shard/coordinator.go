// The Coordinator owns one server.Server + journal per shard and fronts
// them with the global API the daemon exposes: establishes are routed to
// the shard owning the source node, and source/destination pairs living on
// different shards go through a two-phase establish — one PrepareTxn per
// contiguous same-owner run of the global path, then CommitTxn everywhere
// (or AbortTxn everywhere on any refusal). Each shard journals its own
// phases, so a crash mid-transaction leaves a prepare trail the next boot
// decides: a transaction committed on ANY shard is committed on the rest
// (the coordinator only starts committing after every prepare is durable),
// and a transaction committed NOWHERE is aborted (presumed abort). Every
// decided outcome — the establish's own, a partitioned participant's
// leftover, a boot decision — reaches its participants through one
// function, deliver.
package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/routing"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// ErrNoRoute reports that no cross-shard path exists between the endpoints
// on the non-failed global topology. It is a rejection: the request was
// well-formed, the network cannot carry it.
var ErrNoRoute = fmt.Errorf("shard: no cross-shard route: %w", manager.ErrRejected)

// ErrShardUnavailable reports that a participant shard is suspected
// unreachable (its last phase call timed out within the suspicion window),
// so a cross-shard establish through it is refused immediately instead of
// burning a prepare timeout per request. It wraps server.ErrUnavailable,
// which the HTTP layer maps to 503 with Retry-After.
var ErrShardUnavailable = fmt.Errorf("shard: participant suspected unreachable: %w", server.ErrUnavailable)

// crossMarker is the low-byte tag of an external connection ID that names
// a cross-shard transaction instead of a (shard, local conn) pair. Shard
// indices stop at MaxShards-1 = 31, far below it.
const crossMarker = 255

// Options configures a sharded deployment.
type Options struct {
	// Shards is the number of region shards (1..MaxShards, and at most the
	// topology's region count).
	Shards int
	// Dir is the durability root; each shard journals under
	// Dir/shard-NNN. Empty runs every shard in-memory (tests).
	Dir string
	// Manager is the per-shard admission config (applied to each sub
	// graph).
	Manager manager.Config
	// Server is the per-shard server template. Journal and Txns are
	// overwritten per shard; everything else is copied as-is.
	Server server.Options
	// Journal tunes each shard's journal. Ignored when Dir is empty.
	Journal journal.Options
	// PrepareTimeout bounds each 2PC phase call against a shard
	// (default 2s). A prepare that cannot answer in time is treated as a
	// refusal and the transaction aborts (presumed abort: the participant
	// may or may not hold the reservation, so the abort is also queued for
	// resolution until the shard answers again).
	PrepareTimeout time.Duration
	// SuspectWindow is how long a shard stays suspected unreachable after
	// a phase-call timeout (default PrepareTimeout). While suspected, new
	// cross establishes through the shard fail fast with
	// ErrShardUnavailable; any successful call clears the suspicion.
	SuspectWindow time.Duration
	// Invoke, when non-nil, wraps every 2PC phase call (phase is
	// "prepare", "commit" or "abort") against a participant shard. The
	// chaos harness injects netchaos here; production leaves it nil
	// (direct in-process call).
	Invoke func(ctx context.Context, shard int, phase string, call func(context.Context) error) error
}

// prepareRetries is how many extra times a timed-out prepare is retried
// before the transaction aborts. Retries are safe: prepares are idempotent
// per (txn, path), so a participant that applied the original but lost the
// reply simply re-answers its pinned connection. Only timeout-class
// failures retry; domain refusals (rejection, overload, degraded) abort
// immediately.
const prepareRetries = 2

// part is one pinned local connection of a cross-shard transaction.
type part struct {
	shard int
	conn  channel.ConnID
}

// crossConn is the coordinator's index entry for one committed cross-shard
// connection: the global links it crosses (for fail-link teardown) and the
// per-shard pinned connections (for terminate).
type crossConn struct {
	links []topology.LinkID
	parts []part
}

// Coordinator fronts the per-shard servers with the global admission API.
type Coordinator struct {
	g    *topology.Graph
	plan *Plan
	opt  Options

	// afterPrepare is the hook SetTestHookAfterPrepare installs (nil: none).
	afterPrepare func(shard int, txn uint64) error

	shards []*server.Server
	jnls   []*journal.Journal // nil entries when Dir is empty

	// mu guards the cross-connection index, the transaction counter, the
	// pending-resolution queue, the abort-reason tallies, the retry jitter
	// source and the global route search's scratch. Shard calls are made
	// outside it; 2PC holds it only to mutate the index and the queue.
	// Failed links are not kept here: the owning shard's epoch view holds
	// them (failedLinks).
	mu      sync.Mutex
	nextTxn uint64
	cross   map[uint64]*crossConn
	route   routing.RouteScratch
	// pending holds transactions whose outcome is decided but not yet
	// acknowledged by every participant it owes (deliver). What a delivery
	// leaves — typically a partitioned shard — the background resolver and
	// ResolvePending retry until the participants answer.
	pending      map[uint64]pendingTxn
	abortReasons map[string]int64
	jitter       *rng.Source

	// suspect[i] is the UnixNano deadline until which shard i is presumed
	// unreachable (0 = trusted). Set on phase-call timeout, cleared by any
	// successful call.
	suspect []atomic.Int64

	crossAttempts  atomic.Int64
	crossCommitted atomic.Int64
	crossAborted   atomic.Int64
	crossTimeouts  atomic.Int64

	resolverStop chan struct{}
	resolverOnce sync.Once
	resolverDone chan struct{}
}

// pendingTxn is one decided-but-unacknowledged transaction: committed
// tells deliver which phase to send, owe (a bitmask of shard indices, like
// a prepare's peers) which participants still owe an acknowledgment.
type pendingTxn struct {
	committed bool
	owe       uint32
}

// EstablishResult is the coordinator-level answer to an establish: the
// external connection ID plus either the owning shard's arrival report
// (intra-shard) or the rigid allocation a committed 2PC pinned (cross).
type EstablishResult struct {
	ID    int64
	Cross bool
	// Shard is the owning shard for an intra-shard connection, -1 for
	// cross-shard.
	Shard int
	// Report is the owning shard's arrival report (local IDs) for an
	// intra-shard connection; nil for cross-shard.
	Report *manager.ArrivalReport
	// AllocatedKbps is the admitted bandwidth: the report's allocation
	// intra-shard, the rigid Min for cross-shard.
	AllocatedKbps qos.Kbps
	// Hops is the global path length (cross-shard only; 0 intra).
	Hops int
}

// New builds the plan, opens each shard's journal, rebuilds and starts
// each shard's server, and delivers the outcome of every transaction a
// crash left in flight before it returns (recoverTxns).
func New(g *topology.Graph, opt Options) (*Coordinator, error) {
	plan, err := BuildPlan(g, opt.Shards)
	if err != nil {
		return nil, err
	}
	if opt.PrepareTimeout <= 0 {
		opt.PrepareTimeout = 2 * time.Second
	}
	if opt.SuspectWindow <= 0 {
		opt.SuspectWindow = opt.PrepareTimeout
	}
	c := &Coordinator{
		g:            g,
		plan:         plan,
		opt:          opt,
		shards:       make([]*server.Server, opt.Shards),
		jnls:         make([]*journal.Journal, opt.Shards),
		nextTxn:      1,
		cross:        make(map[uint64]*crossConn),
		pending:      make(map[uint64]pendingTxn),
		abortReasons: make(map[string]int64),
		jitter:       rng.New(0xda3e39cb94b95bdb),
		suspect:      make([]atomic.Int64, opt.Shards),
		resolverStop: make(chan struct{}),
		resolverDone: make(chan struct{}),
	}
	for i := 0; i < opt.Shards; i++ {
		if err := c.startShard(i); err != nil {
			_ = c.close(context.Background())
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// A plane whose shards never saw a transaction has none to recover.
	if c.nextTxn > 1 {
		if err := c.recoverTxns(context.Background()); err != nil {
			_ = c.close(context.Background())
			return nil, err
		}
	}
	go c.resolveLoop()
	return c, nil
}

// resolveLoop retries decided-but-unacknowledged transactions in the
// background until Shutdown, so a healed partition drains its leftover
// 2PC reservations without waiting for a restart.
func (c *Coordinator) resolveLoop() {
	defer close(c.resolverDone)
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.resolverStop:
			return
		case <-tick.C:
			c.ResolvePending(context.Background())
		}
	}
}

// startShard opens shard i's journal, rebuilds its state and starts its
// server.
func (c *Coordinator) startShard(i int) error {
	rec := &journal.Recovered{}
	if c.opt.Dir != "" {
		jnl, r, err := journal.Open(filepath.Join(c.opt.Dir, fmt.Sprintf("shard-%03d", i)), c.opt.Journal)
		if err != nil {
			return err
		}
		c.jnls[i], rec = jnl, r
	}
	sub := c.plan.Subs[i]
	m, txns, err := server.Rebuild(sub.Graph, c.opt.Manager, rec)
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	c.nextTxn = max(c.nextTxn, txns.HighWater()+1)
	// Cross-shard counters ride the shard snapshot headers; a restart
	// seeds each from the newest view any shard captured (per-counter
	// max — shards snapshot at different times, so each header is a
	// valid lower bound).
	if h := rec.SnapshotHeader; h != nil {
		c.crossAttempts.Store(max(c.crossAttempts.Load(), h.CrossAttempts))
		c.crossCommitted.Store(max(c.crossCommitted.Load(), h.CrossCommitted))
		c.crossAborted.Store(max(c.crossAborted.Load(), h.CrossAborted))
	}
	so := c.opt.Server
	so.Journal = c.jnls[i]
	so.Txns = txns
	// Every shard snapshot stamps the coordinator's current cross-shard
	// counters into its header, making them restart-durable.
	so.AnnotateSnapshot = func(hdr *journal.SnapshotHeader) {
		hdr.CrossAttempts = c.crossAttempts.Load()
		hdr.CrossCommitted = c.crossCommitted.Load()
		hdr.CrossAborted = c.crossAborted.Load()
	}
	c.shards[i], err = server.NewFromManager(sub.Graph, m, so)
	return err
}

// recoverTxns decides every transaction a crash left in flight, delivers
// the decisions, and indexes the committed cross-shard connections. The
// rule is the classic presumed-abort coordinator recovery: the coordinator
// only starts committing once every participant's prepare is durable, so a
// commit on ANY shard proves the whole transaction was prepared — commit it
// on the shards that still hold it uncommitted. A transaction committed
// nowhere is aborted wherever it is held. Boot fails if a decision cannot
// be delivered.
func (c *Coordinator) recoverTxns(ctx context.Context) error {
	tables := make([][]server.TxnInfo, len(c.shards))
	committed := make(map[uint64]bool)
	for i, s := range c.shards {
		infos, err := s.Txns(ctx)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		tables[i] = infos
		for _, tx := range infos {
			if tx.Committed {
				committed[tx.Txn] = true
			}
		}
	}
	var txns []uint64
	for i, infos := range tables {
		for _, tx := range infos {
			if tx.Committed {
				continue
			}
			p, seen := c.pending[tx.Txn]
			if !seen {
				txns = append(txns, tx.Txn)
			}
			c.pending[tx.Txn] = pendingTxn{committed: committed[tx.Txn], owe: p.owe | 1<<i}
		}
	}
	if _, err := c.deliver(ctx, txns); err != nil {
		return fmt.Errorf("shard: resolving in-flight transactions: %w", err)
	}
	// A commit leaves a transaction's connections as they were; an abort
	// removes the transaction.
	for i, infos := range tables {
		sub := c.plan.Subs[i]
		for _, tx := range infos {
			if !committed[tx.Txn] {
				continue
			}
			for _, cn := range tx.Conns {
				if !cn.Alive {
					continue
				}
				cc := c.cross[tx.Txn]
				if cc == nil {
					cc = &crossConn{}
					c.cross[tx.Txn] = cc
				}
				cc.parts = append(cc.parts, part{shard: i, conn: cn.ID})
				for _, ll := range cn.Links {
					cc.links = append(cc.links, sub.GlobalLink[ll])
				}
			}
		}
	}
	return nil
}

// SetTestHookAfterPrepare installs (nil removes) a hook that runs after
// each successful prepare with the participant's shard index and the
// transaction ID. A non-nil error is treated as a prepare failure (the
// transaction aborts); the chaos harness uses it to kill a shard
// mid-transaction. Call only from the goroutine that will drive the next
// establish.
func (c *Coordinator) SetTestHookAfterPrepare(fn func(shard int, txn uint64) error) {
	c.afterPrepare = fn
}

// Shard returns shard i's server (tests and the HTTP aggregator).
func (c *Coordinator) Shard(i int) *server.Server { return c.shards[i] }

// Plan returns the partition.
func (c *Coordinator) Plan() *Plan { return c.plan }

// CrossTimeouts returns how many 2PC phase calls have timed out.
func (c *Coordinator) CrossTimeouts() int64 { return c.crossTimeouts.Load() }

// AbortReasons returns a copy of the per-reason abort tallies.
func (c *Coordinator) AbortReasons() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.abortReasons))
	for k, v := range c.abortReasons {
		out[k] = v
	}
	return out
}

// PendingResolutions returns how many decided transactions still await a
// participant's acknowledgment.
func (c *Coordinator) PendingResolutions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// suspected reports whether shard i is inside its unreachability window.
func (c *Coordinator) suspected(i int) bool {
	until := c.suspect[i].Load()
	return until > 0 && time.Now().UnixNano() < until
}

// invoke runs one 2PC phase call against a shard under the phase timeout,
// through the Invoke hook when one is installed. A timeout (the deadline
// this call set, not the caller's) marks the shard suspected and counts
// toward the timeout total; any success clears the suspicion.
func (c *Coordinator) invoke(ctx context.Context, shard int, phase string, call func(context.Context) error) error {
	pctx, cancel := context.WithTimeout(ctx, c.opt.PrepareTimeout)
	defer cancel()
	var err error
	if c.opt.Invoke != nil {
		err = c.opt.Invoke(pctx, shard, phase, call)
	} else {
		err = call(pctx)
	}
	if err == nil {
		c.suspect[shard].Store(0)
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		c.crossTimeouts.Add(1)
		c.suspect[shard].Store(time.Now().Add(c.opt.SuspectWindow).UnixNano())
		// Unavailable, as the next call through this shard is while it is
		// suspected, and still a deadline, which prepareRun retries.
		return fmt.Errorf("shard %d: %s timed out after %s: %w: %w", shard, phase, c.opt.PrepareTimeout, ErrShardUnavailable, err)
	}
	return err
}

// prepareRun prepares one participant with capped jittered retries. A
// shard recognizes a prepare for a path the transaction already pins, so a
// retry after a delivered-but-unanswered original is re-answered instead of
// double-pinning the path. Only timeout-class failures retry — a
// domain refusal (rejection, overload, degraded) is a real answer.
func (c *Coordinator) prepareRun(ctx context.Context, r *run, txn uint64, peers uint32, rigid qos.ElasticSpec) (*manager.ArrivalReport, error) {
	backoff := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var rep *manager.ArrivalReport
		err := c.invoke(ctx, r.shard, "prepare", func(ic context.Context) error {
			var perr error
			rep, perr = c.shards[r.shard].PrepareTxn(ic, txn, peers, r.src, r.dst, rigid, r.path)
			return perr
		})
		if err == nil {
			return rep, nil
		}
		if attempt >= prepareRetries || !errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return nil, err
		}
		c.mu.Lock()
		f := c.jitter.Float64()
		c.mu.Unlock()
		sleep := backoff/2 + time.Duration(f*float64(backoff)/2)
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// countAbort tallies one abort under its reason label.
func (c *Coordinator) countAbort(reason string) {
	c.crossAborted.Add(1)
	c.mu.Lock()
	c.abortReasons[reason]++
	c.mu.Unlock()
}

// abortReason classifies a failed phase call for the abort counter.
func abortReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, ErrShardUnavailable):
		return "unreachable"
	case errors.Is(err, manager.ErrRejected):
		return "rejected"
	case errors.Is(err, server.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, server.ErrDegraded):
		return "degraded"
	default:
		return "error"
	}
}

// ResolvePending delivers the decided outcome of every pending
// transaction to the participants that still owe it, and returns how many
// transactions became fully resolved.
func (c *Coordinator) ResolvePending(ctx context.Context) int {
	c.mu.Lock()
	txns := make([]uint64, 0, len(c.pending))
	for txn := range c.pending {
		txns = append(txns, txn)
	}
	c.mu.Unlock()
	resolved, _ := c.deliver(ctx, txns)
	return resolved
}

// deliver sends the decided outcome of each pending transaction in txns to
// the participants that still owe it, and answers how many transactions it
// fully resolved and the first call that failed. It runs in transaction
// order, then shard order, so the phases land in each participant's
// journal in the same order on every run. A suspected participant is
// skipped (the resolver retries it); ErrNotFound and ErrConflict answers
// count as delivered — the participant never held the transaction, or
// already holds the outcome. What is not delivered stays pending.
func (c *Coordinator) deliver(ctx context.Context, txns []uint64) (resolved int, err error) {
	slices.Sort(txns)
	for _, txn := range txns {
		c.mu.Lock()
		p := c.pending[txn]
		c.mu.Unlock()
		phase := "abort"
		if p.committed {
			phase = "commit"
		}
		for s := range c.shards {
			bit := uint32(1) << s
			if p.owe&bit == 0 || c.suspected(s) {
				continue
			}
			cerr := c.invoke(ctx, s, phase, func(ic context.Context) error {
				if p.committed {
					return c.shards[s].CommitTxn(ic, txn)
				}
				return c.shards[s].AbortTxn(ic, txn)
			})
			if cerr != nil && !errors.Is(cerr, server.ErrNotFound) && !errors.Is(cerr, server.ErrConflict) {
				if err == nil {
					err = fmt.Errorf("shard %d: %s txn %d: %w", s, phase, txn, cerr)
				}
				continue
			}
			c.mu.Lock()
			if cur, ok := c.pending[txn]; ok && cur.owe&bit != 0 {
				cur.owe &^= bit
				c.pending[txn] = cur
				if cur.owe == 0 {
					delete(c.pending, txn)
					resolved++
				}
			}
			c.mu.Unlock()
		}
	}
	return resolved, err
}

// decide records txn's outcome as owed by the participants in owe and
// delivers it, under a context of its own: the outcome is decided whatever
// becomes of the establish's caller. It reports whether at least one
// participant acknowledged the outcome by deliver's rule.
func (c *Coordinator) decide(txn uint64, committed bool, owe uint32) (acked bool) {
	if owe == 0 {
		return false
	}
	c.mu.Lock()
	c.pending[txn] = pendingTxn{committed: committed, owe: owe}
	c.mu.Unlock()
	c.deliver(context.Background(), []uint64{txn})
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.pending[txn]
	return !ok || cur.owe != owe
}

// extIntra encodes a shard-local connection as an external ID.
func extIntra(shard int, id channel.ConnID) int64 { return int64(id)*256 + int64(shard) }

// extCross encodes a cross-shard transaction as an external ID.
func extCross(txn uint64) int64 { return int64(txn)*256 + crossMarker }

// Establish admits a connection between global nodes. Same-shard pairs
// delegate to the owning shard's full elastic admission (routes, backups,
// squeezing — unchanged semantics); cross-shard pairs reserve a rigid
// Min-bandwidth path via two-phase prepare/commit.
func (c *Coordinator) Establish(ctx context.Context, src, dst topology.NodeID, spec qos.ElasticSpec) (*EstablishResult, error) {
	if int(src) < 0 || int(src) >= c.g.NumNodes() || int(dst) < 0 || int(dst) >= c.g.NumNodes() {
		return nil, fmt.Errorf("%w: node out of range", server.ErrNotFound)
	}
	ss, ds := c.plan.NodeShard[src], c.plan.NodeShard[dst]
	if ss == ds {
		sub := c.plan.Subs[ss]
		rep, err := c.shards[ss].Establish(ctx, sub.LocalNode[src], sub.LocalNode[dst], spec)
		if err != nil {
			return nil, err
		}
		res := &EstablishResult{Shard: ss, Report: rep}
		if rep != nil && rep.Conn != nil {
			res.ID = extIntra(ss, rep.Conn.ID)
			res.AllocatedKbps = rep.Conn.Spec.Bandwidth(rep.Conn.Level)
		}
		return res, nil
	}
	return c.establishCross(ctx, src, dst, spec)
}

// establishCross runs the two-phase establish: route on the global graph,
// split into per-owner runs, prepare each run as a rigid local connection,
// then commit everywhere. Any refusal — domain rejection, overload,
// degraded shard, timeout, or the test hook — aborts every prepared
// participant.
func (c *Coordinator) establishCross(ctx context.Context, src, dst topology.NodeID, spec qos.ElasticSpec) (*EstablishResult, error) {
	c.crossAttempts.Add(1)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	path, err := c.routeGlobal(src, dst)
	if err != nil {
		return nil, err
	}
	// Cross-shard connections are rigid: the whole path is pinned at Min,
	// with no elastic range to renegotiate across shard boundaries and no
	// backup (dependability for cross connections is the coordinator's
	// re-establish, not a shard-local spare).
	rigid := qos.ElasticSpec{Min: spec.Min, Max: spec.Min, Increment: spec.Min, Utility: spec.Utility}
	runs := splitRuns(c.plan, path)

	var peers uint32
	for _, r := range runs {
		peers |= 1 << uint(r.shard)
	}
	// Fast-fail before touching anyone: a participant inside its
	// unreachability window would only burn a prepare timeout to learn
	// what the last call already taught us.
	for _, r := range runs {
		if c.suspected(r.shard) {
			c.countAbort("unreachable")
			return nil, fmt.Errorf("%w: shard %d", ErrShardUnavailable, r.shard)
		}
	}
	c.mu.Lock()
	txn := c.nextTxn
	c.nextTxn++
	c.mu.Unlock()

	// held are the participants that answered a prepare or whose prepare
	// timed out: a timed-out one may hold the reservation without us
	// knowing (delivered request, lost reply), so the abort must reach it
	// too. AbortTxn of a transaction a shard never saw is a no-op.
	var held uint32
	for _, r := range runs {
		rep, err := c.prepareRun(ctx, r, txn, peers, rigid)
		if err == nil || errors.Is(err, context.DeadlineExceeded) {
			held |= 1 << uint(r.shard)
		}
		if err == nil && c.afterPrepare != nil {
			err = c.afterPrepare(r.shard, txn)
		}
		if err != nil {
			c.countAbort(abortReason(err))
			c.decide(txn, false, held)
			return nil, err
		}
		r.connID = rep.Conn.ID
	}
	// Every prepare is durable: the transaction commits. The first commit
	// that lands makes the outcome durable; a participant that does not
	// acknowledge stays pending for the resolver (or the next boot). Count
	// the commit before issuing it so any snapshot a commit event triggers
	// already carries the final tally.
	c.crossCommitted.Add(1)
	acked := c.decide(txn, true, peers)
	parts := make([]part, len(runs))
	for i, r := range runs {
		parts[i] = part{shard: r.shard, conn: r.connID}
	}
	cc := &crossConn{links: append([]topology.LinkID(nil), path.Links...), parts: parts}
	c.mu.Lock()
	c.cross[txn] = cc
	c.mu.Unlock()
	if !acked {
		// Until one participant journals the commit, a restart presumes
		// abort: this is not yet a success. The resolver keeps delivering,
		// and the connection answers by its ID once the commit lands.
		return nil, fmt.Errorf("%w: cross-shard connection %d: commit decided but no participant has acknowledged it, outcome pending",
			server.ErrUnavailable, extCross(txn))
	}
	return &EstablishResult{
		ID: extCross(txn), Cross: true, Shard: -1,
		AllocatedKbps: rigid.Min, Hops: path.Hops(),
	}, nil
}

// run is one maximal same-owner stretch of a global path, with the owning
// shard's local coordinates. connID is filled in by the prepare.
type run struct {
	shard    int
	src, dst topology.NodeID // local node IDs
	path     routing.Path    // local node/link IDs
	connID   channel.ConnID
}

// splitRuns cuts a global path into maximal consecutive stretches of links
// with the same owning shard and translates each into that shard's local
// coordinates. Border replicas guarantee every endpoint of an owned link
// exists in the owner's sub graph.
func splitRuns(p *Plan, path routing.Path) []*run {
	var runs []*run
	i := 0
	for i < len(path.Links) {
		owner := p.LinkShard[path.Links[i]]
		j := i
		for j < len(path.Links) && p.LinkShard[path.Links[j]] == owner {
			j++
		}
		sub := p.Subs[owner]
		r := &run{shard: owner}
		for k := i; k <= j; k++ {
			r.path.Nodes = append(r.path.Nodes, sub.LocalNode[path.Nodes[k]])
		}
		for k := i; k < j; k++ {
			r.path.Links = append(r.path.Links, sub.LocalLink[path.Links[k]])
		}
		r.src, r.dst = r.path.Nodes[0], r.path.Nodes[len(r.path.Nodes)-1]
		runs = append(runs, r)
		i = j
	}
	return runs
}

// routeGlobal finds a minimum-hop path on the global topology avoiding
// the failed links, on the coordinator's one route scratch (under c.mu).
// ShortestHops visits neighbours in link insertion order, so the same
// topology and failure set always yield the same path.
func (c *Coordinator) routeGlobal(src, dst topology.NodeID) (routing.Path, error) {
	var failed []int
	for i, s := range c.shards {
		failed = c.failedLinks(failed, i, s.View().FailedLinks)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := c.route.ShortestHops(c.g, src, dst, func(l topology.LinkID) bool { return !slices.Contains(failed, int(l)) })
	if err != nil {
		return routing.Path{}, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	return path, nil
}

// failedLinks appends to dst the global IDs of the links in local (shard
// i's failed links, as its epoch view lists them) that shard i owns. The
// owning shard's view is the one record of a link's failure: the shard
// publishes it after every mutation and every recovery.
func (c *Coordinator) failedLinks(dst []int, i int, local []int) []int {
	sub := c.plan.Subs[i]
	for _, ll := range local {
		if gl := sub.GlobalLink[ll]; c.plan.LinkShard[gl] == i {
			dst = append(dst, int(gl))
		}
	}
	return dst
}

// Terminate releases an external connection ID: a (shard, local) pair for
// intra-shard connections, a transaction's every pinned part for
// cross-shard ones. A (shard, local) pair that is a part of a committed
// cross-shard connection is not an intra-shard connection and answers
// ErrNotFound: only the transaction's ID releases it.
func (c *Coordinator) Terminate(ctx context.Context, ext int64) error {
	_, err := c.terminate(ctx, ext, nil)
	return err
}

// terminate is Terminate answering the owning shard's report. A
// cross-shard connection answers merged, with its parts' reports appended
// when merged is not nil.
func (c *Coordinator) terminate(ctx context.Context, ext int64, merged *manager.TerminationReport) (*manager.TerminationReport, error) {
	if ext < 0 {
		return nil, fmt.Errorf("%w: connection %d", server.ErrNotFound, ext)
	}
	marker := int(ext % 256)
	if marker == crossMarker {
		txn := uint64(ext / 256)
		c.mu.Lock()
		cc := c.cross[txn]
		delete(c.cross, txn)
		c.mu.Unlock()
		if cc == nil {
			return nil, fmt.Errorf("%w: connection %d", server.ErrNotFound, ext)
		}
		for _, p := range cc.parts {
			// A part may already be gone (dropped by a link failure that
			// raced the terminate); that is not the caller's problem.
			rep, err := c.shards[p.shard].Terminate(ctx, p.conn)
			if errors.Is(err, server.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, err
			}
			if merged != nil {
				merged.Affected += rep.Affected
				merged.Changes = append(merged.Changes, rep.Changes...)
			}
		}
		return merged, nil
	}
	local := part{shard: marker, conn: channel.ConnID(ext / 256)}
	if marker >= len(c.shards) || c.isCrossPart(local) {
		return nil, fmt.Errorf("%w: connection %d", server.ErrNotFound, ext)
	}
	return c.shards[marker].Terminate(ctx, local.conn)
}

// isCrossPart reports whether p is pinned by a committed cross-shard
// connection. A scan, not a second index to keep in step: the cross index
// holds tens to hundreds of entries.
func (c *Coordinator) isCrossPart(p part) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.cross {
		if slices.Contains(cc.parts, p) {
			return true
		}
	}
	return false
}

// FailLink injects a global link failure: the owning shard fails it
// locally (its elastic connections fail over or drop exactly as in the
// single-shard plane), and committed cross-shard connections crossing the
// link are torn down on their other shards — a rigid pinned path has no
// backup, so the failure drops it end to end. The report is the owning
// shard's in external IDs. The pieces that shard held of the torn
// cross-shard connections name no connection a client holds (DELETE on one
// answers 404), so they are left out, and each torn connection is listed
// once in Dropped by its own ID. Changes are left out.
func (c *Coordinator) FailLink(ctx context.Context, l topology.LinkID) (*manager.FailureReport, error) {
	if int(l) < 0 || int(l) >= c.g.NumLinks() {
		return nil, fmt.Errorf("%w: link %d", server.ErrNotFound, l)
	}
	owner := c.plan.LinkShard[l]
	rep, err := c.shards[owner].FailLink(ctx, c.plan.Subs[owner].LocalLink[l])
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	torn := make(map[uint64]*crossConn)
	var txns []uint64
	for txn, cc := range c.cross {
		if slices.Contains(cc.links, l) {
			torn[txn] = cc
			txns = append(txns, txn)
			delete(c.cross, txn)
		}
	}
	c.mu.Unlock()
	// In transaction order, not map order, so the pieces' terminate records
	// land in each shard's journal in the same order on every run.
	slices.Sort(txns)
	pieces := make(map[channel.ConnID]bool)
	for _, txn := range txns {
		for _, p := range torn[txn].parts {
			if p.shard == owner {
				pieces[p.conn] = true
			}
			// The owner shard's part died with the link; the others are
			// torn down explicitly. ErrNotFound just means it was already
			// gone.
			if _, terr := c.shards[p.shard].Terminate(ctx, p.conn); terr != nil && !errors.Is(terr, server.ErrNotFound) && err == nil {
				err = terr
			}
		}
	}
	if err != nil {
		return nil, err
	}
	ext := func(ids []channel.ConnID) []channel.ConnID {
		var out []channel.ConnID
		for _, id := range ids {
			if !pieces[id] {
				out = append(out, channel.ConnID(extIntra(owner, id)))
			}
		}
		return out
	}
	dropped := ext(rep.Dropped)
	for _, txn := range txns {
		dropped = append(dropped, channel.ConnID(extCross(txn)))
	}
	return &manager.FailureReport{
		Activated:   ext(rep.Activated),
		Dropped:     dropped,
		Recovered:   ext(rep.Recovered),
		BackupsLost: ext(rep.BackupsLost),
		Squeezed:    ext(rep.Squeezed),
	}, nil
}

// RepairLink marks a global link repaired on its owning shard.
func (c *Coordinator) RepairLink(ctx context.Context, l topology.LinkID) (int, error) {
	if int(l) < 0 || int(l) >= c.g.NumLinks() {
		return 0, fmt.Errorf("%w: link %d", server.ErrNotFound, l)
	}
	owner := c.plan.LinkShard[l]
	return c.shards[owner].RepairLink(ctx, c.plan.Subs[owner].LocalLink[l])
}

// Shutdown stops the background resolver, every shard server, and every
// journal.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.resolverOnce.Do(func() { close(c.resolverStop) })
	<-c.resolverDone
	return c.close(ctx)
}

// close shuts down every started shard server, then closes every open
// journal.
func (c *Coordinator) close(ctx context.Context) error {
	var first error
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		if err := s.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, j := range c.jnls {
		if j != nil {
			if err := j.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
