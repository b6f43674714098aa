// Follower side: the continuous replay loop, snapshot re-bootstrap, and
// the failover controller that promotes after sustained primary failure.
package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"drqos/internal/journal"
	"drqos/internal/rng"
	"drqos/internal/server"
)

// errBootstrap asks the loop to re-seed from a primary snapshot: the
// primary compacted past our tip, or our history diverged from its.
var errBootstrap = errors.New("replica: bootstrap required")

// errDemotedPrimary reports that the node streamed from stepped down (or
// is stopping); the cluster is between primaries and the stream should
// back off and retry.
var errDemotedPrimary = errors.New("replica: streamed node is not primary")

// Run drives the follower until promotion, Stop, or ctx cancellation:
// stream from the primary, apply what arrives, re-bootstrap when told to,
// and promote when the primary has been silent for FailoverTimeout. It
// returns nil after a successful promotion (the node is the primary now)
// or Stop, and the terminal error otherwise.
func (n *Node) Run(ctx context.Context) error {
	lastSuccess := time.Now()
	backoff := 10 * time.Millisecond
	// Jitter desynchronizes retry storms when several standbys chase the
	// same dead primary; the seed only shapes sleep lengths, not behavior.
	jit := rng.New(0x9e3779b97f4a7c15)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-n.halted.Done():
			return nil
		default:
		}
		if !n.srv.IsFollower() {
			// Promoted out from under the loop (POST /v1/admin/promote).
			slog.Info("replica: role is primary, follower loop exiting")
			return nil
		}

		err := n.stream(ctx)
		if n.stopped() {
			return nil
		}
		// A stream that delivered anything, the heartbeat included, was a
		// success up to its last message.
		n.mu.Lock()
		if n.lastFetch.After(lastSuccess) {
			lastSuccess = n.lastFetch
			backoff = 10 * time.Millisecond
		}
		n.mu.Unlock()
		switch {
		case errors.Is(err, errBootstrap):
			slog.Warn("replica: re-bootstrapping from the primary's snapshot", "err", err)
			if berr := n.bootstrap(ctx); berr != nil {
				n.setDiverged(true, berr.Error())
				slog.Error("replica: bootstrap failed", "err", berr)
			} else {
				n.setDiverged(false, "")
				lastSuccess = time.Now()
				backoff = 10 * time.Millisecond
				continue
			}
		case errors.Is(err, server.ErrDiverged):
			// ApplyReplicated latched the server degraded; a snapshot
			// re-seed is the only way back.
			n.setDiverged(true, err.Error())
			slog.Error("replica: diverged", "err", err)
			if berr := n.bootstrap(ctx); berr == nil {
				n.setDiverged(false, "")
				lastSuccess = time.Now()
				continue
			}
		case errors.Is(err, server.ErrConflict):
			// The server's role flipped mid-apply; loop around and exit.
			continue
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			slog.Warn("replica: stream failed", "primary", n.PrimaryURL(), "err", err)
		}

		// The stream failed. Sustained failure is the failover signal.
		if n.cfg.FailoverTimeout > 0 && time.Since(lastSuccess) >= n.cfg.FailoverTimeout {
			// Quiesce before seizing the cluster: with lease fencing on,
			// stay off the stream for a full lease plus one heartbeat so
			// the old primary's lease — which our own stream openings may
			// still have been renewing across an asymmetric partition — is
			// guaranteed expired before we start acknowledging writes.
			if q := n.cfg.Lease + n.cfg.PollWait; n.cfg.Lease > 0 {
				slog.Warn("replica: failover timeout reached; quiescing so the primary's lease expires before promotion", "quiesce", q)
				select {
				case <-time.After(q):
				case <-n.halted.Done():
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			term, perr := n.srv.Promote(ctx)
			if perr == nil {
				n.resetLease()
				slog.Warn("replica: promoted to primary", "term", term,
					"without_primary", time.Since(lastSuccess).Round(time.Millisecond))
				return nil
			}
			if errors.Is(perr, server.ErrConflict) {
				return nil // someone promoted us concurrently
			}
			// A degraded (diverged) follower refuses promotion — keep
			// retrying the primary instead of seizing the cluster.
			slog.Error("replica: promotion refused", "err", perr)
		}
		// Capped backoff with jitter on the upper half: sleep in
		// [backoff/2, backoff).
		sleep := backoff/2 + time.Duration(jit.Float64()*float64(backoff)/2)
		select {
		case <-time.After(sleep):
		case <-n.halted.Done():
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

func (n *Node) setDiverged(d bool, reason string) {
	n.mu.Lock()
	n.diverged, n.divergedReason = d, reason
	n.mu.Unlock()
}

// prevCRC returns the CRC of the last local record, or ok=false when the
// tip sits inside a snapshot (nothing to probe with).
func (n *Node) prevCRC() (uint32, bool) {
	tip := n.jnl.LastSeq()
	if tip == 0 || tip <= n.jnl.SnapshotSeq() {
		return 0, false
	}
	crc, ok, err := n.jnl.FrameCRC(tip)
	return crc, ok && err == nil
}

// stream opens one full-duplex stream from the local tip and applies what
// the primary pushes until the stream fails; it never returns nil. Opening
// it acknowledges the local tip, so the tip is made durable first. Each
// message is applied as it arrives (server.ApplyReplicated does not wait
// for durability), and the request body (acks) reports progress as it
// becomes durable, so the next batch applies while this one syncs.
func (n *Node) stream(ctx context.Context) error {
	primary := n.PrimaryURL()
	if primary == "" {
		return errDemotedPrimary
	}
	if err := n.jnl.WaitDurable(ctx, n.jnl.LastSeq()); err != nil {
		return err
	}
	from := n.jnl.LastSeq() + 1
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	q.Set("term", strconv.FormatUint(n.srv.Term(), 10))
	if crc, ok := n.prevCRC(); ok {
		q.Set("prev_crc", strconv.FormatUint(uint64(crc), 10))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(n.halted, cancel)()
	// Silence is the failure signal: a stream that delivers nothing, not
	// even the idle heartbeat, for silenceTimeout is as good as a dead
	// primary, and the failover clock must not be starved by one stalled
	// connection.
	silent := time.AfterFunc(n.silenceTimeout(), cancel)
	defer silent.Stop()
	up := &acks{n: n, ctx: ctx, kick: make(chan struct{}, 1), tick: time.NewTicker(n.cfg.PollWait)}
	defer up.tick.Stop()
	up.applied.Store(from - 1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(primary, "/")+"/v1/replica/stream?"+q.Encode(), up)
	if err != nil {
		return err
	}
	// Connection: close keeps the primary from draining a body that never
	// ends when the exchange does.
	req.Close = true
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		switch resp.StatusCode {
		case http.StatusGone, http.StatusConflict:
			return fmt.Errorf("%w: %s", errBootstrap, strings.TrimSpace(string(msg)))
		case http.StatusServiceUnavailable:
			return fmt.Errorf("%w: %s", errDemotedPrimary, strings.TrimSpace(string(msg)))
		}
		return fmt.Errorf("replica: stream answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	in := bufio.NewReader(resp.Body)
	var buf []byte
	for {
		var m message
		if m, buf, err = readMessage(in, buf); err != nil {
			return err
		}
		silent.Reset(n.silenceTimeout())
		if m.term < n.srv.Term() {
			// A stale ex-primary is pushing; refuse its records. Fencing in
			// the other direction (it demoting) happens when it streams from
			// us or when our own term reaches it through an operator.
			return fmt.Errorf("replica: refused batch from stale term %d (local term %d)", m.term, n.srv.Term())
		}
		n.mu.Lock()
		n.primaryDurable = m.durable
		n.lastFetch = time.Now()
		n.mu.Unlock()
		if len(m.frames) == 0 {
			continue // the heartbeat: primary alive, nothing new
		}
		evs, err := journal.DecodeFrames(m.frames)
		if err != nil {
			return fmt.Errorf("replica: corrupt stream frames: %v", err)
		}
		seq, err := n.srv.ApplyReplicated(ctx, evs, m.verify)
		if seq > 0 {
			n.mu.Lock()
			n.applied = seq
			n.mu.Unlock()
		}
		if err != nil {
			// Nothing of a batch that failed is acknowledged.
			return err
		}
		up.applied.Store(seq)
		select {
		case up.kick <- struct{}{}:
		default:
		}
	}
}

// acks is the request body of a standby's stream. Each Read blocks until
// there is an acknowledgment to send — a batch became durable, or PollWait
// passed (the primary's lease heartbeat) — and returns its 8 bytes, so the
// transport's own writer waits on durability and sends the ack without a
// hand-off. An acknowledgment is the highest seq both applied without
// error and durable here. A node that was promoted acknowledges nothing
// more: its acknowledgments would keep the old primary's lease alive.
type acks struct {
	n       *Node
	ctx     context.Context
	applied atomic.Uint64
	kick    chan struct{} // a batch was applied
	tick    *time.Ticker
}

func (a *acks) Read(p []byte) (int, error) {
	if len(p) < 8 {
		return 0, io.ErrShortBuffer
	}
	select {
	case <-a.ctx.Done():
		return 0, a.ctx.Err()
	case <-a.tick.C:
	case <-a.kick:
		if err := a.n.jnl.WaitDurable(a.ctx, a.applied.Load()); err != nil {
			return 0, err
		}
	}
	if !a.n.srv.IsFollower() {
		return 0, fmt.Errorf("%w: promoted while streaming", server.ErrConflict)
	}
	binary.LittleEndian.PutUint64(p, min(a.n.jnl.DurableSeq(), a.applied.Load()))
	return 8, nil
}

// silenceTimeout is how long a stream may stay silent: the heartbeat
// interval plus grace for transfer. With failover on, grace is half the
// failover timeout (floor 250ms) so a stalled stream can never push
// failure detection past ~1.5 timeouts.
func (n *Node) silenceTimeout() time.Duration {
	grace := 2 * time.Second
	if n.cfg.FailoverTimeout > 0 {
		grace = n.cfg.FailoverTimeout / 2
		if grace < 250*time.Millisecond {
			grace = 250 * time.Millisecond
		}
	}
	return n.cfg.PollWait + grace
}

// bootstrap re-seeds the whole node from the primary's snapshot: fetch the
// image, replace the local journal's contents with it (wiping any
// divergent suffix), and rebuild + swap the live manager from the fresh
// journal. This is the big hammer — it discards local history — which is
// exactly right when that history is compacted-away or contradicted.
func (n *Node) bootstrap(ctx context.Context) error {
	primary := n.PrimaryURL()
	if primary == "" {
		return errDemotedPrimary
	}
	bctx, cancel := context.WithTimeout(ctx, snapshotTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(bctx, http.MethodGet,
		strings.TrimSuffix(primary, "/")+"/v1/replica/snapshot", nil)
	if err != nil {
		return err
	}
	// Connection: close keeps the primary from draining a body that never
	// ends when the exchange does.
	req.Close = true
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("replica: bad snapshot envelope: %v", err)
	}
	// The follower loop is the journal's only writer, so installing here is
	// append-quiescent by construction.
	if err := n.jnl.InstallSnapshot(env.Header, env.Body); err != nil {
		return fmt.Errorf("replica: install snapshot: %v", err)
	}
	if _, err := n.srv.Reseed(ctx); err != nil {
		return fmt.Errorf("replica: reseed from installed snapshot: %v", err)
	}
	n.mu.Lock()
	n.applied = env.Header.Seq
	n.bootstraps++
	// A point minted for a standby of our own pinned the history the
	// install just replaced.
	n.verify = server.VerifyPoint{}
	n.mu.Unlock()
	slog.Info("replica: bootstrapped from the primary's snapshot", "seq", env.Header.Seq, "term", env.Term)
	return nil
}
