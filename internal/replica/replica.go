// Package replica is the network half of primary/backup replication: it
// streams a primary's write-ahead journal to warm standbys and turns a
// standby into the new primary in under a second when the primary dies.
//
// One Node serves both sides of the protocol, because every node can play
// both roles across its lifetime (a promoted standby immediately starts
// shipping to the next standby; a demoted ex-primary starts following):
//
//   - Shipper (always mounted): GET /v1/replica/stream long-polls the
//     journal from a requested sequence number and answers CRC-framed
//     records — the exact on-disk frame bytes — plus fingerprint verify
//     points minted every verifyEvery records while a standby polls.
//     GET /v1/replica/snapshot serves a bootstrap image for standbys that
//     are too far behind (compacted history) or diverged. The stream poll doubles as the replication
//     acknowledgment: a poll with from=N confirms every record below N is
//     durably applied on the follower, which drives the semi-synchronous
//     WaitReplicated hook gating the primary's client acknowledgments.
//     Both waits park on the event that ends them — the poll on the
//     journal's durable broadcast, the hook on the next poll — so the
//     standby's confirmation costs two fsyncs and a round trip, not a poll
//     interval, and the hook releases a confirmed acknowledgment at once.
//
//   - Follower (Run): a continuous replay loop that fetches from the
//     primary, applies each batch through server.ApplyReplicated (journal
//     append under the primary's numbering + live manager replay +
//     fingerprint cross-check), re-bootstraps from a snapshot when the
//     primary's history was compacted past its tip or diverged from it,
//     and health-checks the primary as a side effect of polling: after
//     FailoverTimeout of failed fetches it promotes the local server.
//
// Fencing rides the term number: every stream response and poll carries
// one. A poll bearing a higher term demotes a stale primary before it can
// serve another record; a response bearing a lower term is refused by the
// follower. The term itself is journaled (KindTerm) so it survives crashes
// on both sides.
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
	// successful fetch from the primary (0 disables automatic failover —
	// promotion then only happens via POST /v1/admin/promote).
	FailoverTimeout time.Duration
	// PollWait is the shipper's long-poll window and the follower's poll
	// pacing (default 1s, capped to FailoverTimeout/4 when failover is on
	// so detection is never starved by an open poll).
	PollWait time.Duration
	// SyncTimeout bounds how long one acknowledgment waits for the standby
	// to confirm fetch before falling back to asynchronous (default 5s).
	// With a lease (below) the fallback is gone: the timeout refuses the
	// acknowledgment instead.
	SyncTimeout time.Duration
	// Lease enables lease-based primary fencing (0 disables). Once a
	// standby has polled, the primary holds an acknowledgment lease it
	// renews on every standby poll; when no poll arrives within Lease, the
	// primary fences itself — mutations answer 503 and the semi-sync
	// fallback to asynchronous acks is disabled — so across any partition
	// at most one node acknowledges writes. The invariant that makes this
	// safe is Lease < FailoverTimeout with both sides configured alike:
	// before promoting, a standby additionally quiesces its polls for
	// Lease + PollWait, guaranteeing the old primary's lease has expired
	// by the instant the standby starts acking (even when the partition is
	// asymmetric and the primary kept receiving the standby's polls).
	Lease time.Duration
	// Transport, when non-nil, replaces the follower HTTP client's
	// transport — the netchaos injection point.
	Transport http.RoundTripper
}

const (
	// batchMax caps records per stream response.
	batchMax = 512
	// syncActiveWindow is how recently a standby must have polled for the
	// primary to keep gating client acknowledgments on replication. Past it
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
	// A leased primary must see a poll every Lease; pacing the follower at
	// a third of that keeps one delayed poll from expiring the lease.
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
	// confirmed (by polling past it), when it last polled, and a broadcast
	// channel replaced on every poll so WaitReplicated wakes immediately.
	replicatedSeq uint64
	lastPoll      time.Time
	pollSignal    chan struct{}
	// Lease state: granted latches once any standby polls (an unpaired
	// primary acks asynchronously — there is nobody to lose writes to) and
	// resets on every role transition so a re-promoted node is not fenced
	// by its previous life's poll history. lostLogged dedups the fence log
	// line across the many acks that observe the same expiry.
	leaseGranted bool
	lostLogged   bool
	// verify is the newest verify point minted for a standby (shipper.go).
	verify server.VerifyPoint
	// How long confirmed acknowledgments waited on the standby, in ms.
	ackWaitP50, ackWaitP99 *stats.P2Quantile
	// Follower-side progress, served into the stats block.
	primaryURL     string
	applied        uint64
	primaryDurable uint64
	lastFetch      time.Time
	diverged       bool
	divergedReason string

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewNode builds a replication node over srv and its journal. The node is
// passive until its Handler is mounted (shipper side) and Run is started
// (follower side).
func NewNode(srv *server.Server, jnl *journal.Journal, cfg Config) *Node {
	cfg = cfg.withDefaults()
	p50, _ := stats.NewP2Quantile(0.50) // constant quantiles: cannot fail
	p99, _ := stats.NewP2Quantile(0.99)
	return &Node{
		srv:        srv,
		jnl:        jnl,
		cfg:        cfg,
		client:     &http.Client{Timeout: cfg.PollWait + 5*time.Second, Transport: cfg.Transport},
		pollSignal: make(chan struct{}),
		ackWaitP50: p50,
		ackWaitP99: p99,
		primaryURL: cfg.PrimaryURL,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Stop halts the follower loop (if running). Safe to call multiple times.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
}

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
		if n.primaryDurable > n.applied {
			rs.LagSeq = int64(n.primaryDurable - n.applied)
		}
		if !n.lastFetch.IsZero() {
			rs.LagSeconds = time.Since(n.lastFetch).Seconds()
		}
	} else {
		rs.ReplicatedSeq = n.replicatedSeq
		if time.Since(n.lastPoll) <= syncActiveWindow {
			rs.Followers = 1
		}
		rs.LeaseEnabled = n.cfg.Lease > 0
		rs.LeaseLost = n.leaseLostLocked()
		if n.ackWaitP50.N() > 0 {
			rs.AckWaitMsP50 = n.ackWaitP50.Value()
			rs.AckWaitMsP99 = n.ackWaitP99.Value()
		}
	}
	return rs
}

// leaseLostLocked reports whether the standby-granted acknowledgment
// lease has lapsed. Callers hold n.mu.
func (n *Node) leaseLostLocked() bool {
	return n.cfg.Lease > 0 && n.leaseGranted && time.Since(n.lastPoll) > n.cfg.Lease
}

// LeaseLost reports whether this node is a fenced primary: lease fencing
// is on, a standby once granted the lease, and no poll renewed it within
// the lease window. A fenced primary refuses mutations but keeps its role;
// it resumes acking the moment a standby polls again.
func (n *Node) LeaseLost() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.srv.IsFollower() && n.leaseLostLocked()
}

// resetLease clears lease state on a role transition — a freshly promoted
// (or re-promoted) primary starts unleased and acks asynchronously until
// a standby's first poll grants it a new lease.
func (n *Node) resetLease() {
	n.mu.Lock()
	n.leaseGranted = false
	n.lostLogged = false
	n.mu.Unlock()
}

// notePoll records a standby's poll: from confirms everything below it.
func (n *Node) notePoll(confirmed uint64) {
	n.mu.Lock()
	if confirmed > n.replicatedSeq {
		n.replicatedSeq = confirmed
	}
	n.lastPoll = time.Now()
	regained := n.lostLogged
	n.leaseGranted = true
	n.lostLogged = false
	close(n.pollSignal)
	n.pollSignal = make(chan struct{})
	n.mu.Unlock()
	if regained {
		slog.Info("replica: lease regained, standby polling resumed; acknowledging mutations again")
	}
}

// WaitReplicated implements the server's semi-synchronous hook: block
// until a standby's poll confirmed seq, the standby goes quiet (fall back
// to asynchronous — a dead standby must not take client traffic down with
// it), the sync timeout expires, or ctx dies. A confirmation is released
// the moment the confirming poll arrives.
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
	// answer can change without a poll; every poll wakes the wait itself
	// through pollSignal and moves that instant.
	timer := time.NewTimer(n.cfg.SyncTimeout)
	defer timer.Stop()
	for {
		n.mu.Lock()
		confirmed := n.replicatedSeq >= seq
		active := !n.lastPoll.IsZero() && time.Since(n.lastPoll) <= syncActiveWindow
		leased := n.cfg.Lease > 0 && n.leaseGranted
		lost := n.leaseLostLocked()
		logFence := lost && !n.lostLogged
		if logFence {
			n.lostLogged = true
		}
		// Without a poll the verdict changes when the sync timeout runs out
		// or, sooner, when the last poll ages out: of the lease (fence), or of
		// the active window (fall back to asynchronous).
		next := n.lastPoll.Add(syncActiveWindow)
		if leased {
			next = n.lastPoll.Add(n.cfg.Lease)
		}
		if next.After(deadline) {
			next = deadline
		}
		signal := n.pollSignal
		n.mu.Unlock()
		if logFence {
			slog.Warn("replica: lease lost, no standby poll within the lease; fencing acknowledgments", "lease", n.cfg.Lease)
		}
		if confirmed {
			n.observeAckWait(time.Since(start))
			return nil
		}
		if leased {
			if lost {
				return fmt.Errorf("%w: no standby poll within the %s lease", server.ErrFenced, n.cfg.Lease)
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

// observeAckWait feeds one confirmed acknowledgment's wait into the
// quantiles the stats block reports.
func (n *Node) observeAckWait(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	n.mu.Lock()
	n.ackWaitP50.Observe(ms)
	n.ackWaitP99.Observe(ms)
	n.mu.Unlock()
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
	mux.HandleFunc("GET /v1/replica/stream", n.handleStream)
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
					fmt.Sprintf("replication lease lost: no standby poll within %s; mutations fenced", n.cfg.Lease))
				return
			}
		}
		api.ServeHTTP(w, r)
	})
	return mux
}

// handlePromote is the manual-promotion interlock. A plain promote is
// refused with 409 while the current primary still looks alive — a recent
// successful fetch within the lease window, or a live answer to a direct
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
// answers: first by the follower's own recent fetch history (cheap, no
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
		return fmt.Sprintf("fetched from it %s ago", time.Since(last).Round(time.Millisecond)), true
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
