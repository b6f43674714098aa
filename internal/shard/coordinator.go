// The Coordinator owns one server.Server + journal per shard and fronts
// them with the global API the daemon exposes: establishes are routed to
// the shard owning the source node, and source/destination pairs living on
// different shards go through a two-phase establish — one PrepareTxn per
// contiguous same-owner run of the global path, then CommitTxn everywhere
// (or AbortTxn everywhere on any refusal). Each shard journals its own
// phases, so a crash mid-transaction leaves a prepare trail the next boot
// reconciles: a transaction committed on ANY shard is re-committed on the
// rest (the coordinator only starts committing after every prepare is
// durable), and a transaction committed NOWHERE is aborted (presumed
// abort — the coordinator never acknowledged it).
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

	// mu guards the cross-connection index, the failed-link view, the
	// transaction counter, the pending-resolution queue, the abort-reason
	// tallies, the retry jitter source and the global route search's
	// scratch. Shard calls are made outside it whenever possible; 2PC
	// holds it only to mutate the index.
	mu      sync.Mutex
	nextTxn uint64
	cross   map[uint64]*crossConn
	failed  map[topology.LinkID]bool
	route   routing.RouteScratch
	// pending holds transactions whose outcome is decided but not yet
	// acknowledged by every participant (a commit or abort call failed —
	// typically a partitioned shard). The background resolver and
	// ResolvePending retry them until the participants answer; boot
	// reconciliation covers the same ground after a crash.
	pending      map[uint64]*pendingTxn
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
// tells the resolver which phase to replay, shards which participants
// still owe an acknowledgment.
type pendingTxn struct {
	committed bool
	shards    map[int]bool
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

// New builds the plan, opens each shard's journal, rebuilds each shard's
// state, reconciles transactions a crash left in flight, and starts the
// per-shard servers.
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
		jnls:         make([]*journal.Journal, opt.Shards),
		nextTxn:      1,
		cross:        make(map[uint64]*crossConn),
		failed:       make(map[topology.LinkID]bool),
		pending:      make(map[uint64]*pendingTxn),
		abortReasons: make(map[string]int64),
		jitter:       rng.New(0xda3e39cb94b95bdb),
		suspect:      make([]atomic.Int64, opt.Shards),
		resolverStop: make(chan struct{}),
		resolverDone: make(chan struct{}),
	}

	mgrs := make([]*manager.Manager, opt.Shards)
	tables := make([]*server.TxnTable, opt.Shards)
	for i := 0; i < opt.Shards; i++ {
		sub := plan.Subs[i]
		var rec *journal.Recovered
		if opt.Dir != "" {
			jnl, r, err := journal.Open(filepath.Join(opt.Dir, fmt.Sprintf("shard-%03d", i)), opt.Journal)
			if err != nil {
				c.closeJournals()
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			c.jnls[i] = jnl
			rec = r
		} else {
			rec = &journal.Recovered{}
		}
		m, txns, err := server.RebuildWithTxns(sub.Graph, opt.Manager, rec)
		if err != nil {
			c.closeJournals()
			return nil, fmt.Errorf("shard %d: rebuild: %w", i, err)
		}
		mgrs[i] = m
		tables[i] = txns
		// Cross-shard counters ride the shard snapshot headers; a restart
		// seeds each from the newest view any shard captured (per-counter
		// max — shards snapshot at different times, so each header is a
		// valid lower bound).
		if h := rec.SnapshotHeader; h != nil {
			if h.CrossAttempts > c.crossAttempts.Load() {
				c.crossAttempts.Store(h.CrossAttempts)
			}
			if h.CrossCommitted > c.crossCommitted.Load() {
				c.crossCommitted.Store(h.CrossCommitted)
			}
			if h.CrossAborted > c.crossAborted.Load() {
				c.crossAborted.Store(h.CrossAborted)
			}
		}
	}

	if err := c.reconcile(mgrs, tables); err != nil {
		c.closeJournals()
		return nil, err
	}
	c.rebuildIndex(mgrs, tables)

	c.shards = make([]*server.Server, opt.Shards)
	for i := 0; i < opt.Shards; i++ {
		so := opt.Server
		so.Journal = c.jnls[i]
		so.Txns = tables[i]
		// Every shard snapshot stamps the coordinator's current cross-shard
		// counters into its header, making them restart-durable.
		so.AnnotateSnapshot = func(hdr *journal.SnapshotHeader) {
			hdr.CrossAttempts = c.crossAttempts.Load()
			hdr.CrossCommitted = c.crossCommitted.Load()
			hdr.CrossAborted = c.crossAborted.Load()
		}
		srv, err := server.NewFromManager(plan.Subs[i].Graph, mgrs[i], so)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = c.shards[j].Shutdown(context.Background())
			}
			c.closeJournals()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.shards[i] = srv
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
			c.mu.Lock()
			n := len(c.pending)
			c.mu.Unlock()
			if n > 0 {
				c.ResolvePending(context.Background())
			}
		}
	}
}

func (c *Coordinator) closeJournals() {
	for _, j := range c.jnls {
		if j != nil {
			_ = j.Close()
		}
	}
}

// reconcile resolves transactions a crash left in flight, before the
// servers start (raw managers and journals, no concurrency). The rule is
// the classic presumed-abort coordinator recovery: the coordinator only
// starts committing once every participant's prepare is durable, so a
// commit record on ANY shard proves the whole transaction was fully
// prepared — re-commit it on the shards that lost theirs. A transaction
// committed nowhere was never acknowledged — abort it everywhere. Either
// way the shard sees the same records, through the same transition
// function, as if its live server had run the phase.
func (c *Coordinator) reconcile(mgrs []*manager.Manager, tables []*server.TxnTable) error {
	infos := make([][]server.TxnInfo, len(tables))
	committed := make(map[uint64]bool)
	for i, t := range tables {
		infos[i] = t.Infos(mgrs[i])
		for _, tx := range infos[i] {
			if tx.Committed {
				committed[tx.Txn] = true
			}
		}
		if h := t.HighWater(); h >= c.nextTxn {
			c.nextTxn = h + 1
		}
	}
	for i, t := range tables {
		// Infos is in transaction order, which keeps the reconciliation
		// journal trail reproducible across boots of the same directory.
		for _, tx := range infos[i] {
			if tx.Committed {
				continue
			}
			evs := []journal.Event{{Kind: journal.KindCommit, Txn: tx.Txn}}
			if !committed[tx.Txn] {
				evs = t.AbortEvents(tx.Txn)
			}
			for _, ev := range evs {
				if c.jnls[i] != nil {
					if _, err := c.jnls[i].Append(ev); err != nil {
						return fmt.Errorf("shard %d: reconcile txn %d: %w", i, tx.Txn, err)
					}
				}
				if err := server.Replay(mgrs[i], t, ev); err != nil {
					return fmt.Errorf("shard %d: reconcile txn %d: %w", i, tx.Txn, err)
				}
			}
		}
	}
	return nil
}

// rebuildIndex reconstructs the coordinator's in-memory views from the
// reconciled shard states: the cross-connection index from the surviving
// transactions (local link IDs mapped back to global) and the failed-link
// set from each shard's owned links.
func (c *Coordinator) rebuildIndex(mgrs []*manager.Manager, tables []*server.TxnTable) {
	for i, t := range tables {
		sub := c.plan.Subs[i]
		for _, tx := range t.Infos(mgrs[i]) {
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
		for li, owner := range c.plan.LinkShard {
			gl := topology.LinkID(li)
			if owner == i && mgrs[i].Network().Failed(sub.LocalLink[gl]) {
				c.failed[gl] = true
			}
		}
	}
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

// addPending queues a decided transaction whose listed participants have
// not acknowledged the outcome yet.
func (c *Coordinator) addPending(txn uint64, committed bool, shards map[int]bool) {
	if len(shards) == 0 {
		return
	}
	c.mu.Lock()
	c.pending[txn] = &pendingTxn{committed: committed, shards: shards}
	c.mu.Unlock()
}

// ResolvePending replays the decided outcome of every pending transaction
// to the participants that have not acknowledged it, and returns how many
// transactions became fully resolved. Suspected shards are skipped (the
// next pass retries them); ErrNotFound and ErrConflict answers count as
// resolved — the participant already holds (or never held) the outcome.
func (c *Coordinator) ResolvePending(ctx context.Context) int {
	c.mu.Lock()
	work := make(map[uint64]pendingTxn, len(c.pending))
	for txn, p := range c.pending {
		shards := make(map[int]bool, len(p.shards))
		for s := range p.shards {
			shards[s] = true
		}
		work[txn] = pendingTxn{committed: p.committed, shards: shards}
	}
	c.mu.Unlock()

	// In transaction order, not map order, so the re-sent phases land in
	// each participant's journal in the same order on every run.
	txns := make([]uint64, 0, len(work))
	for txn := range work {
		txns = append(txns, txn)
	}
	slices.Sort(txns)
	resolved := 0
	for _, txn := range txns {
		p := work[txn]
		for s := range p.shards {
			if c.suspected(s) {
				continue
			}
			var err error
			if p.committed {
				err = c.invoke(ctx, s, "commit", func(ic context.Context) error {
					return c.shards[s].CommitTxn(ic, txn)
				})
			} else {
				err = c.invoke(ctx, s, "abort", func(ic context.Context) error {
					return c.shards[s].AbortTxn(ic, txn)
				})
			}
			if err == nil || errors.Is(err, server.ErrNotFound) || errors.Is(err, server.ErrConflict) {
				c.mu.Lock()
				if cur := c.pending[txn]; cur != nil {
					delete(cur.shards, s)
					if len(cur.shards) == 0 {
						delete(c.pending, txn)
						resolved++
					}
				}
				c.mu.Unlock()
			}
		}
	}
	return resolved
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

	// prepared are participants that answered a prepare; ambiguous are
	// ones whose prepare timed out — they may hold the reservation without
	// us knowing (delivered request, lost reply), so an abort must reach
	// them too.
	prepared := make(map[int]bool)
	ambiguous := make(map[int]bool)
	abort := func(reason string) {
		c.countAbort(reason)
		unresolved := make(map[int]bool)
		for s := range prepared {
			ambiguous[s] = true
		}
		for s := range ambiguous {
			if c.suspected(s) {
				unresolved[s] = true
				continue
			}
			// AbortTxn is idempotent (unknown txn is a no-op), so reaching
			// a participant that never saw the prepare is harmless.
			err := c.invoke(context.Background(), s, "abort", func(ic context.Context) error {
				return c.shards[s].AbortTxn(ic, txn)
			})
			if err != nil && !errors.Is(err, server.ErrNotFound) {
				unresolved[s] = true
			}
		}
		// Participants we could not reach keep the presumed-abort pending
		// until the resolver (or next boot's reconciliation) drains them.
		c.addPending(txn, false, unresolved)
	}
	for _, r := range runs {
		rep, perr := c.prepareRun(ctx, r, txn, peers, rigid)
		if perr != nil {
			if errors.Is(perr, context.DeadlineExceeded) {
				ambiguous[r.shard] = true
			}
			abort(abortReason(perr))
			return nil, perr
		}
		r.connID = rep.Conn.ID
		prepared[r.shard] = true
		if c.afterPrepare != nil {
			if herr := c.afterPrepare(r.shard, txn); herr != nil {
				abort("error")
				return nil, herr
			}
		}
	}
	// Every prepare is durable: the transaction commits. Per-shard commit
	// errors are tolerated — the first commit that lands makes the outcome
	// durable, and the resolver (or boot reconciliation) re-commits the
	// stragglers. Count the commit before issuing it so any snapshot a
	// commit event triggers already carries the final tally.
	c.crossCommitted.Add(1)
	parts := make([]part, 0, len(runs))
	uncommitted := make(map[int]bool)
	for _, r := range runs {
		err := c.invoke(context.Background(), r.shard, "commit", func(ic context.Context) error {
			return c.shards[r.shard].CommitTxn(ic, txn)
		})
		if err != nil && !errors.Is(err, server.ErrConflict) {
			uncommitted[r.shard] = true
		}
		parts = append(parts, part{shard: r.shard, conn: r.connID})
	}
	c.addPending(txn, true, uncommitted)
	cc := &crossConn{links: append([]topology.LinkID(nil), path.Links...), parts: parts}
	c.mu.Lock()
	c.cross[txn] = cc
	c.mu.Unlock()
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
// links the coordinator knows are failed, on the coordinator's one route
// scratch (under c.mu). ShortestHops visits neighbours in
// link insertion order, so the same topology and failure set always yield
// the same path.
func (c *Coordinator) routeGlobal(src, dst topology.NodeID) (routing.Path, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, err := c.route.ShortestHops(c.g, src, dst, func(l topology.LinkID) bool { return !c.failed[l] })
	if err != nil {
		return routing.Path{}, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	return path, nil
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
	c.failed[l] = true
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
	restored, err := c.shards[owner].RepairLink(ctx, c.plan.Subs[owner].LocalLink[l])
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	delete(c.failed, l)
	c.mu.Unlock()
	return restored, nil
}

// Shutdown stops the background resolver, every shard server, and every
// journal.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.resolverOnce.Do(func() { close(c.resolverStop) })
	<-c.resolverDone
	var first error
	for _, s := range c.shards {
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
