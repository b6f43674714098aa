// Package replica is the network half of primary/backup replication: it
// streams a primary's write-ahead journal to warm standbys and turns a
// standby into the new primary in under a second when the primary dies.
//
// One Node serves both sides of the protocol, because every node can play
// both roles across its lifetime (a promoted standby immediately starts
// shipping to the next standby; a demoted ex-primary starts following):
//
//   - Shipper (always mounted): POST /v1/replica/stream opens one
//     long-lived, full-duplex exchange per standby. The response body
//     pushes CRC-framed records — the exact on-disk frame bytes — the
//     moment each is durable on the primary, with fingerprint verify
//     points minted every verifyEvery records, without waiting for the
//     acknowledgment of the previous push; an empty message every PollWait
//     is the idle heartbeat. The request body carries the standby's
//     acknowledgments back: each 8-byte seq confirms every record up to it
//     is durably applied on the follower, renews the lease and drives the
//     semi-synchronous WaitReplicated hook gating the primary's client
//     acknowledgments. Every wait parks on the event that ends it — the
//     push on the journal's durable broadcast, the standby's acknowledgment
//     on its own, the hook on the next acknowledgment — so records are in
//     flight while earlier ones are still being confirmed.
//     GET /v1/replica/snapshot serves a bootstrap image for standbys that
//     are too far behind (compacted history) or diverged.
//
//   - Follower (Run): a continuous replay loop that streams from the
//     primary, applies each message through server.ApplyReplicated
//     (journal append under the primary's numbering, live manager replay,
//     fingerprint cross-check) while the previous one syncs,
//     re-bootstraps from a snapshot when the primary's history was
//     compacted past its tip or diverged from it, and health-checks the
//     primary as a side effect of streaming: after FailoverTimeout without
//     a message it promotes the local server.
//
// Fencing rides the term number: every stream message and stream opening
// carries one. An opening bearing a higher term demotes a stale primary
// before it can serve another record; a message bearing a lower term is
// refused by the follower. The term itself is journaled (KindTerm) so it
// survives crashes on both sides.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"drqos/internal/journal"
	"drqos/internal/server"
	"drqos/internal/stats"
)

// Config tunes a replication node.
type Config struct {
	// PrimaryURL is the base URL of the primary to follow. Empty for a
	// node booting as primary.
	PrimaryURL string
	// FailoverTimeout promotes the follower after this long without a
	// message from the primary (0 disables automatic failover — promotion
	// then only happens via POST /v1/admin/promote).
	FailoverTimeout time.Duration
	// PollWait is the heartbeat interval of both directions of an idle
	// stream (default 1s, capped to FailoverTimeout/4 when failover is on
	// so detection is never starved by a quiet stream).
	PollWait time.Duration
	// SyncTimeout bounds how long one acknowledgment waits for the standby
	// to confirm fetch before falling back to asynchronous (default 5s).
	// With a lease (below) the fallback is gone: the timeout refuses the
	// acknowledgment instead.
	SyncTimeout time.Duration
	// Lease enables lease-based primary fencing (0 disables). Once a
	// standby has streamed, the primary holds an acknowledgment lease it
	// renews on every standby acknowledgment (and stream opening); when
	// none arrives within Lease, the primary fences itself — mutations
	// answer 503 and the semi-sync fallback to asynchronous acks is
	// disabled — so across any partition at most one node acknowledges
	// writes. The invariant that makes this safe is Lease < FailoverTimeout
	// with both sides configured alike: before promoting, a standby
	// additionally stays off the stream for Lease + PollWait, guaranteeing
	// the old primary's lease has expired by the instant the standby starts
	// acking (even when the partition is asymmetric and the primary kept
	// hearing from the standby).
	Lease time.Duration
	// Transport, when non-nil, replaces the follower HTTP client's
	// transport — the netchaos injection point.
	Transport http.RoundTripper
}

const (
	// batchMax caps records per stream message.
	batchMax = 512
	// syncActiveWindow is how recently a standby must have acknowledged for
	// the primary to keep gating client acknowledgments on replication. Past it
	// the primary falls back to asynchronous replication instead of
	// stalling clients behind a dead standby.
	syncActiveWindow = 3 * time.Second
	// snapshotTimeout bounds one bootstrap snapshot fetch.
	snapshotTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.PollWait <= 0 {
		c.PollWait = time.Second
	}
	if c.FailoverTimeout > 0 && c.PollWait > c.FailoverTimeout/4 {
		c.PollWait = c.FailoverTimeout / 4
	}
	if c.PollWait <= 0 {
		c.PollWait = 50 * time.Millisecond
	}
	// A leased primary must see an acknowledgment every Lease; a heartbeat
	// every third of that keeps one delayed acknowledgment from expiring
	// the lease.
	if c.Lease > 0 && c.PollWait > c.Lease/3 {
		c.PollWait = c.Lease / 3
		if c.PollWait < 5*time.Millisecond {
			c.PollWait = 5 * time.Millisecond
		}
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 5 * time.Second
	}
	return c
}

// Node binds a server and its journal into the replication protocol.
type Node struct {
	srv *server.Server
	jnl *journal.Journal
	cfg Config

	client *http.Client

	mu sync.Mutex
	// Shipper-side acknowledgment state: the highest sequence a standby
	// confirmed, when it last acknowledged, and a broadcast channel replaced
	// on every acknowledgment so WaitReplicated wakes immediately.
	replicatedSeq uint64
	lastAck       time.Time
	ackSignal     chan struct{}
	// Lease state: granted latches once any standby acknowledges (an
	// unpaired primary acks asynchronously — there is nobody to lose writes
	// to) and resets on every role transition so a re-promoted node is not
	// fenced by its previous life's history. lostLogged dedups the fence log
	// line across the many acks that observe the same expiry.
	leaseGranted bool
	lostLogged   bool
	// verify is the newest verify point minted for a standby (shipper.go).
	verify server.VerifyPoint
	// How long confirmed acknowledgments waited on the standby. Atomic:
	// written and read without n.mu.
	ackWait stats.Latency
	// Follower-side progress, served into the stats block.
	primaryURL     string
	applied        uint64
	primaryDurable uint64
	lastFetch      time.Time
	bootstraps     int64
	diverged       bool
	divergedReason string

	// halted is done once Stop was called; halt calls it.
	halted context.Context
	halt   context.CancelFunc
}

// NewNode builds a replication node over srv and its journal. The node is
// passive until its Handler is mounted (shipper side) and Run is started
// (follower side).
func NewNode(srv *server.Server, jnl *journal.Journal, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		srv:        srv,
		jnl:        jnl,
		cfg:        cfg,
		client:     &http.Client{Transport: cfg.Transport},
		ackSignal:  make(chan struct{}),
		primaryURL: cfg.PrimaryURL,
	}
	n.halted, n.halt = context.WithCancel(context.Background())
	return n
}

// Stop halts the follower loop (if running) and ends every stream, both
// the one this node follows and those it serves. Safe to call multiple
// times.
func (n *Node) Stop() { n.halt() }

func (n *Node) stopped() bool { return n.halted.Err() != nil }

// PrimaryURL returns the primary this node currently follows ("" once it
// is the primary itself).
func (n *Node) PrimaryURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.srv.IsFollower() {
		return ""
	}
	return n.primaryURL
}

// StatsBlock supplies the follower/shipper detail of the stats replica
// block; the server fills role/term/promotions itself.
func (n *Node) StatsBlock() *server.ReplicaStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	rs := &server.ReplicaStats{
		Diverged: n.diverged,
	}
	if n.srv.IsFollower() {
		rs.PrimaryURL = n.primaryURL
		rs.AppliedSeq = n.applied
		rs.Bootstraps = n.bootstraps
		if n.primaryDurable > n.applied {
			rs.LagSeq = int64(n.primaryDurable - n.applied)
		}
		if !n.lastFetch.IsZero() {
			rs.LagSeconds = time.Since(n.lastFetch).Seconds()
		}
	} else {
		rs.ReplicatedSeq = n.replicatedSeq
		if time.Since(n.lastAck) <= syncActiveWindow {
			rs.Followers = 1
		}
		rs.LeaseEnabled = n.cfg.Lease > 0
		rs.LeaseLost = n.leaseLostLocked()
		if w := n.ackWait.Summary(); w.N > 0 {
			rs.AckWaitMsP50 = w.P50.Seconds() * 1e3
			rs.AckWaitMsP99 = w.P99.Seconds() * 1e3
		}
	}
	return rs
}

// leaseLostLocked reports whether the standby-granted acknowledgment
// lease has lapsed. Callers hold n.mu.
func (n *Node) leaseLostLocked() bool {
	return n.cfg.Lease > 0 && n.leaseGranted && time.Since(n.lastAck) > n.cfg.Lease
}

// LeaseLost reports whether this node is a fenced primary: lease fencing
// is on, a standby once granted the lease, and no acknowledgment renewed
// it within the lease window. A fenced primary refuses mutations but keeps
// its role; it resumes acking the moment a standby acknowledges again.
func (n *Node) LeaseLost() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.srv.IsFollower() && n.leaseLostLocked()
}

// resetLease clears lease state on a role transition — a freshly promoted
// (or re-promoted) primary starts unleased and acks asynchronously until
// a standby's first acknowledgment grants it a new lease.
func (n *Node) resetLease() {
	n.mu.Lock()
	n.leaseGranted = false
	n.lostLogged = false
	n.mu.Unlock()
}

// noteAck records a standby's acknowledgment (or stream opening), which
// confirms everything up to confirmed.
func (n *Node) noteAck(confirmed uint64) {
	n.mu.Lock()
	if confirmed > n.replicatedSeq {
		n.replicatedSeq = confirmed
	}
	n.lastAck = time.Now()
	regained := n.lostLogged
	n.leaseGranted = true
	n.lostLogged = false
	close(n.ackSignal)
	n.ackSignal = make(chan struct{})
	n.mu.Unlock()
	if regained {
		slog.Info("replica: lease regained, standby acknowledging again; acknowledging mutations again")
	}
}

// WaitReplicated implements the server's semi-synchronous hook: block
// until a standby's acknowledgment confirmed seq, the standby goes quiet
// (fall back to asynchronous — a dead standby must not take client
// traffic down with it), the sync timeout expires, or ctx dies. A
// confirmation is released the moment the confirming acknowledgment
// arrives.
//
// With lease fencing on and a lease granted, the asynchronous fallbacks
// are closed off: an expired lease or a sync timeout refuses the
// acknowledgment with server.ErrFenced instead of silently acking a write
// the standby — which may be promoting itself on the other side of a
// partition — will never have.
func (n *Node) WaitReplicated(ctx context.Context, seq uint64) error {
	start := time.Now()
	deadline := start.Add(n.cfg.SyncTimeout)
	// One timer for the whole wait, armed for the one instant at which the
	// answer can change without an acknowledgment; every acknowledgment
	// wakes the wait itself through ackSignal and moves that instant.
	timer := time.NewTimer(n.cfg.SyncTimeout)
	defer timer.Stop()
	for {
		n.mu.Lock()
		confirmed := n.replicatedSeq >= seq
		active := !n.lastAck.IsZero() && time.Since(n.lastAck) <= syncActiveWindow
		leased := n.cfg.Lease > 0 && n.leaseGranted
		lost := n.leaseLostLocked()
		logFence := lost && !n.lostLogged
		if logFence {
			n.lostLogged = true
		}
		// Without an acknowledgment the verdict changes when the sync timeout
		// runs out or, sooner, when the last one ages out: of the lease
		// (fence), or of the active window (fall back to asynchronous).
		next := n.lastAck.Add(syncActiveWindow)
		if leased {
			next = n.lastAck.Add(n.cfg.Lease)
		}
		if next.After(deadline) {
			next = deadline
		}
		signal := n.ackSignal
		n.mu.Unlock()
		if logFence {
			slog.Warn("replica: lease lost, no standby acknowledgment within the lease; fencing acknowledgments", "lease", n.cfg.Lease)
		}
		if confirmed {
			n.ackWait.Observe(time.Since(start))
			return nil
		}
		if leased {
			if lost {
				return fmt.Errorf("%w: no standby acknowledgment within the %s lease", server.ErrFenced, n.cfg.Lease)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: standby did not confirm seq %d within %s", server.ErrFenced, seq, n.cfg.SyncTimeout)
			}
		} else if !active || time.Now().After(deadline) {
			return nil
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		// The comparisons above are strict, so aim just past the instant.
		timer.Reset(time.Until(next) + time.Microsecond)
		select {
		case <-signal:
		case <-timer.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// isMutation reports whether a request would originate a mutation — the
// requests a follower redirects to the primary. Admin and replication
// endpoints are exempt: promote/recover must target the node itself, and
// the stream is how a follower serves its own standbys.
func isMutation(r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return false
	}
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		return false
	}
	if strings.HasPrefix(r.URL.Path, "/v1/admin/") || strings.HasPrefix(r.URL.Path, "/v1/replica/") {
		return false
	}
	return true
}

// FrontHandler wraps the server's API handler with the replication front:
// replication endpoints are mounted under /v1/replica/, promotion goes
// through the split-brain interlock, and mutations are steered by role —
// a follower that knows its primary answers 307 to it (clients that
// follow redirects keep working through a failover without
// re-configuration; the server's own ErrNotPrimary guard backstops
// clients that ignore the redirect), and a lease-fenced primary answers
// 503 with Retry-After before the request can reach the actor loop.
func (n *Node) FrontHandler(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/replica/stream", n.handleStream)
	mux.HandleFunc("GET /v1/replica/snapshot", n.handleSnapshot)
	mux.HandleFunc("POST /v1/admin/promote", n.handlePromote)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if isMutation(r) {
			if n.srv.IsFollower() {
				if primary := n.PrimaryURL(); primary != "" {
					http.Redirect(w, r, strings.TrimSuffix(primary, "/")+r.URL.RequestURI(), http.StatusTemporaryRedirect)
					return
				}
			} else if n.LeaseLost() {
				server.WriteShed(w, http.StatusServiceUnavailable, time.Second,
					fmt.Sprintf("replication lease lost: no standby acknowledgment within %s; mutations fenced", n.cfg.Lease))
				return
			}
		}
		api.ServeHTTP(w, r)
	})
	return mux
}

// handlePromote is the manual-promotion interlock. A plain promote is
// refused with 409 while the current primary still looks alive — a recent
// stream message within the lease window, or a live answer to a direct
// health probe — because promoting next to a healthy primary is exactly
// the split-brain the lease exists to prevent. {"force":true} overrides
// the interlock for operators who know the probe path is lying (e.g. the
// operator can reach the primary but the standby cannot).
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Force bool `json:"force"`
	}
	if r.Body != nil {
		_ = json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req)
	}
	if n.srv.IsFollower() && !req.Force {
		if reason, alive := n.primaryAlive(r.Context()); alive {
			server.WriteJSON(w, http.StatusConflict, map[string]any{
				"error":  "primary still alive: " + reason + `; pass {"force":true} to promote anyway`,
				"reason": reason,
			})
			return
		}
	}
	term, err := n.srv.Promote(r.Context())
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, server.ErrConflict):
			status = http.StatusConflict
		case errors.Is(err, server.ErrDegraded):
			status = http.StatusServiceUnavailable
		}
		server.WriteJSON(w, status, server.ErrorBody{Error: err.Error()})
		return
	}
	n.resetLease()
	server.WriteJSON(w, http.StatusOK, map[string]any{"promoted": true, "term": term, "role": "primary"})
}

// primaryAlive reports whether the primary this follower tracks still
// answers: first by the follower's own recent stream messages (cheap, no
// network), then by a short direct probe of the primary's /healthz.
func (n *Node) primaryAlive(ctx context.Context) (reason string, alive bool) {
	window := n.cfg.Lease
	if window <= 0 {
		window = n.cfg.FailoverTimeout
	}
	if window <= 0 {
		window = time.Second
	}
	n.mu.Lock()
	last := n.lastFetch
	primary := n.primaryURL
	n.mu.Unlock()
	if !last.IsZero() && time.Since(last) <= window {
		return fmt.Sprintf("heard from it %s ago", time.Since(last).Round(time.Millisecond)), true
	}
	if primary == "" {
		return "", false
	}
	probe := window / 2
	if probe < 100*time.Millisecond {
		probe = 100 * time.Millisecond
	}
	if probe > time.Second {
		probe = time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, probe)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, strings.TrimSuffix(primary, "/")+"/healthz", nil)
	if err != nil {
		return "", false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return "", false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return "it answered a health probe just now", true
	}
	return "", false
}
