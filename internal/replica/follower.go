// Follower side: the continuous replay loop, snapshot re-bootstrap, and
// the failover controller that promotes after sustained primary failure.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"drqos/internal/journal"
	"drqos/internal/rng"
	"drqos/internal/server"
)

// errBootstrap asks the loop to re-seed from a primary snapshot: the
// primary compacted past our tip, or our history diverged from its.
var errBootstrap = errors.New("replica: bootstrap required")

// errDemotedPrimary reports that the polled node stepped down; the cluster
// is between primaries and the poll should back off and retry.
var errDemotedPrimary = errors.New("replica: polled node is not primary")

// Run drives the follower until promotion, Stop, or ctx cancellation: poll
// the primary, apply what arrives, re-bootstrap when told to, and promote
// when the primary has been unreachable for FailoverTimeout. It returns
// nil after a successful promotion (the node is the primary now) and the
// terminal error otherwise.
func (n *Node) Run(ctx context.Context) error {
	defer close(n.done)
	lastSuccess := time.Now()
	backoff := 10 * time.Millisecond
	// Jitter desynchronizes retry storms when several standbys chase the
	// same dead primary; the seed only shapes sleep lengths, not behavior.
	jit := rng.New(0x9e3779b97f4a7c15)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-n.stop:
			return nil
		default:
		}
		if !n.srv.IsFollower() {
			// Promoted out from under the loop (POST /v1/admin/promote).
			slog.Info("replica: role is primary, follower loop exiting")
			return nil
		}

		err := n.fetchAndApply(ctx)
		switch {
		case err == nil:
			lastSuccess = time.Now()
			backoff = 10 * time.Millisecond
			continue
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
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			if ctx.Err() != nil {
				return ctx.Err()
			}
		default:
			slog.Warn("replica: fetch failed", "primary", n.PrimaryURL(), "err", err)
		}

		// The poll failed. Sustained failure is the failover signal.
		if n.cfg.FailoverTimeout > 0 && time.Since(lastSuccess) >= n.cfg.FailoverTimeout {
			// Quiesce before seizing the cluster: with lease fencing on,
			// stop polling for a full lease plus one poll interval so the
			// old primary's lease — which our own polls may still have been
			// renewing across an asymmetric partition — is guaranteed
			// expired before we start acknowledging writes.
			if q := n.cfg.Lease + n.cfg.PollWait; n.cfg.Lease > 0 {
				slog.Warn("replica: failover timeout reached; quiescing so the primary's lease expires before promotion", "quiesce", q)
				select {
				case <-time.After(q):
				case <-n.stop:
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
		case <-n.stop:
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

// fetchAndApply performs one poll cycle: request records past the local
// tip (the request itself acknowledges everything at or below the tip),
// verify the response's term, and apply the batch.
func (n *Node) fetchAndApply(ctx context.Context) error {
	primary := n.PrimaryURL()
	if primary == "" {
		return errDemotedPrimary
	}
	from := n.jnl.LastSeq() + 1
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	q.Set("term", strconv.FormatUint(n.srv.Term(), 10))
	q.Set("wait", strconv.Itoa(int(n.cfg.PollWait/time.Millisecond)))
	if crc, ok := n.prevCRC(); ok {
		q.Set("prev_crc", strconv.FormatUint(uint64(crc), 10))
	}
	// An explicit per-fetch deadline: a poll that hangs past the long-poll
	// window plus grace is indistinguishable from a dead primary, and the
	// failover clock must not be starved by one silently-dropped request.
	fctx, cancel := context.WithTimeout(ctx, n.fetchTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet,
		strings.TrimSuffix(primary, "/")+"/v1/replica/stream?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return fmt.Errorf("%w: %s", errBootstrap, strings.TrimSpace(string(body)))
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", errBootstrap, strings.TrimSpace(string(body)))
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", errDemotedPrimary, strings.TrimSpace(string(body)))
	default:
		return fmt.Errorf("replica: stream answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var env streamEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("replica: bad stream envelope: %v", err)
	}
	if env.Term < n.srv.Term() {
		// A stale ex-primary is answering; refuse its records. Fencing in
		// the other direction (it demoting) happens when it polls or when
		// our own term reaches it through an operator.
		return fmt.Errorf("replica: refused batch from stale term %d (local term %d)", env.Term, n.srv.Term())
	}

	n.mu.Lock()
	n.primaryDurable = env.DurableSeq
	n.lastFetch = time.Now()
	n.mu.Unlock()

	if len(env.Frames) == 0 {
		return nil // quiet poll: primary is alive, nothing new
	}
	evs, err := journal.DecodeFrames(env.Frames)
	if err != nil {
		return fmt.Errorf("replica: corrupt stream frames: %v", err)
	}
	applied, err := n.srv.ApplyReplicated(ctx, evs, env.Verify)
	if applied > 0 {
		n.mu.Lock()
		n.applied = applied
		n.mu.Unlock()
	}
	return err
}

// fetchTimeout bounds one stream poll: the long-poll window the request
// asks for, plus grace for transfer. With failover on, grace is half the
// failover timeout (floor 250ms) so a wedged poll can never push failure
// detection past ~1.5 timeouts.
func (n *Node) fetchTimeout() time.Duration {
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
	// A point minted for a standby of our own pinned the history the
	// install just replaced.
	n.verify = server.VerifyPoint{}
	n.mu.Unlock()
	slog.Info("replica: bootstrapped from the primary's snapshot", "seq", env.Header.Seq, "term", env.Term)
	return nil
}
