// Shipper side: serving the journal stream and bootstrap snapshots.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"drqos/internal/journal"
	"drqos/internal/server"
)

// streamEnvelope is one stream response. Frames holds the records in the
// journal's on-disk frame format (length + CRC-32C + payload), base64 in
// JSON — the standby appends exactly the checksummed bytes a journal would
// hold. Verify carries fingerprint checkpoints the follower must match as
// its applied prefix reaches them.
type streamEnvelope struct {
	Term       uint64               `json:"term"`
	DurableSeq uint64               `json:"durable_seq"`
	Verify     []server.VerifyPoint `json:"verify,omitempty"`
	Frames     []byte               `json:"frames,omitempty"`
}

// snapshotEnvelope is the bootstrap image: a snapshot header + body pair
// fit for journal.InstallSnapshot on the receiving side.
type snapshotEnvelope struct {
	Term   uint64                 `json:"term"`
	Header journal.SnapshotHeader `json:"header"`
	Body   []byte                 `json:"body"`
}

// streamError is the shipper's refusal envelope. Reason is machine-read by
// the follower: "compacted" (410) → bootstrap from the snapshot endpoint;
// "diverged" (409) → local history contradicts the primary's, bootstrap;
// "demoted" (503) → this node just stepped down, find the new primary.
type streamError struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

const (
	reasonCompacted = "compacted"
	reasonDiverged  = "diverged"
	reasonDemoted   = "demoted"
)

func writeStreamError(w http.ResponseWriter, code int, reason, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(streamError{Error: msg, Reason: reason})
}

// handleStream answers GET /v1/replica/stream?from=N[&term=T][&prev_crc=C]
// [&wait=ms]: long-poll for records with Seq >= from, bounded by the
// durable tip. A poll is also the standby's acknowledgment that everything
// below from is durably applied over there, and its term is the fencing
// probe — a higher term demotes this node before it serves a byte.
func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		http.Error(w, "stream: from must be a positive sequence number", http.StatusBadRequest)
		return
	}
	pollerTerm, _ := strconv.ParseUint(q.Get("term"), 10, 64)
	if pollerTerm > n.srv.Term() {
		// The poller promoted past us: we are the stale side. Step down
		// first, answer "demoted" second — never serve under a dead term.
		slog.Warn("replica: demoting, a peer polled with a higher term", "peer_term", pollerTerm, "term", n.srv.Term())
		if err := n.srv.Demote(r.Context(), pollerTerm); err != nil {
			http.Error(w, "demote: "+err.Error(), http.StatusInternalServerError)
			return
		}
		n.resetLease()
		writeStreamError(w, http.StatusServiceUnavailable, reasonDemoted,
			fmt.Sprintf("stepped down under term %d", pollerTerm))
		return
	}

	if from <= n.jnl.SnapshotSeq() {
		writeStreamError(w, http.StatusGone, reasonCompacted,
			fmt.Sprintf("records below %d are compacted into a snapshot", n.jnl.SnapshotSeq()+1))
		return
	}
	// History-identity probe: the standby reports the CRC of its last
	// record; if ours at the same seq differs — or we do not even have that
	// seq — the histories forked and the standby must re-bootstrap.
	if prev := q.Get("prev_crc"); prev != "" && from > 1 {
		prevCRC, perr := strconv.ParseUint(prev, 10, 32)
		if perr != nil {
			http.Error(w, "stream: bad prev_crc", http.StatusBadRequest)
			return
		}
		switch crc, ok, rerr := n.jnl.FrameCRC(from - 1); {
		case errors.Is(rerr, journal.ErrCompacted):
			// Compacted between the check above and here; indistinguishable
			// from the from<=snapSeq case.
			writeStreamError(w, http.StatusGone, reasonCompacted, "history compacted under the probe")
			return
		case rerr != nil:
			http.Error(w, rerr.Error(), http.StatusInternalServerError)
			return
		case !ok:
			writeStreamError(w, http.StatusConflict, reasonDiverged,
				fmt.Sprintf("standby is at seq %d but primary's durable tip is %d — divergent suffix", from-1, n.jnl.DurableSeq()))
			return
		case crc != uint32(prevCRC):
			writeStreamError(w, http.StatusConflict, reasonDiverged,
				fmt.Sprintf("record %d CRC mismatch: standby %08x, primary %08x", from-1, uint32(prevCRC), crc))
			return
		}
	}
	// The probe passed: everything below from is confirmed replicated.
	n.notePoll(from - 1)

	wait := n.cfg.PollWait
	if ms, werr := strconv.Atoi(q.Get("wait")); werr == nil && ms >= 0 {
		wait = time.Duration(ms) * time.Millisecond
		if wait > 30*time.Second {
			wait = 30 * time.Second
		}
	}
	// Park on the event that ends the poll: the journal's durable broadcast
	// wakes it the moment record from exists. Anything else WaitDurable can
	// report — the deadline (an idle poll: the empty envelope below is the
	// lease heartbeat), a disconnect, a journal that closed, died or had its
	// history replaced and so will never make from durable — is an idle poll
	// too and is held to its deadline, so a standby cannot spin against a
	// primary that cannot write.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	if n.jnl.WaitDurable(ctx, from) != nil {
		<-ctx.Done()
	}
	frames, count, err := n.jnl.ReadFrames(from, batchMax)
	if errors.Is(err, journal.ErrCompacted) {
		writeStreamError(w, http.StatusGone, reasonCompacted, "history compacted mid-poll")
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	env := streamEnvelope{
		Term:       n.srv.Term(),
		DurableSeq: n.jnl.DurableSeq(),
		Frames:     frames,
	}
	if count > 0 {
		env.Verify = n.verifyPoints(r.Context(), from, from+uint64(count)-1)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(env)
}

// verifyEvery is how many records the newest verify point may trail the
// batch being served before the shipper mints another. A point costs one
// export of the primary's full state and one of the standby's, so a
// divergence is caught within about this many records at a per-record cost
// of a small fraction of an export.
const verifyEvery = 64

// verifyPoints returns the verify points the batch [from, last] carries.
// Points are minted here, by a standby's poll, and nowhere else: state and
// the journal position it is the replay of leave the loop together
// (server.ExportState). That position is the journal's tip, so a fresh
// point usually lies past last and is held for the batch that reaches it.
func (n *Node) verifyPoints(ctx context.Context, from, last uint64) []server.VerifyPoint {
	n.mu.Lock()
	held := n.verify
	n.mu.Unlock()
	var carried []server.VerifyPoint
	if held.Seq >= from && held.Seq <= last {
		carried = append(carried, held)
	}
	if last > held.Seq+verifyEvery {
		seq, st, err := n.srv.ExportState(ctx)
		if err != nil {
			return carried // the next poll mints
		}
		fresh := server.VerifyPoint{Seq: seq, Fingerprint: st.Fingerprint()}
		n.mu.Lock()
		n.verify = fresh
		n.mu.Unlock()
		if fresh.Seq <= last {
			carried = append(carried, fresh)
		}
	}
	return carried
}

// handleSnapshot answers GET /v1/replica/snapshot with the newest
// bootstrap image, writing one on demand when none exists yet.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	hdr, body, err := n.jnl.LatestSnapshot()
	if err == nil && hdr == nil {
		// Nothing compacted yet: materialize a snapshot so a diverged
		// standby can still be re-seeded from the primary's exact state.
		if serr := n.srv.SnapshotNow(r.Context()); serr != nil {
			http.Error(w, "snapshot: "+serr.Error(), http.StatusConflict)
			return
		}
		hdr, body, err = n.jnl.LatestSnapshot()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if hdr == nil {
		http.Error(w, "snapshot: none available", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(snapshotEnvelope{Term: n.srv.Term(), Header: *hdr, Body: body})
}
