// Shipper side: serving the journal stream and bootstrap snapshots.
package replica

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"drqos/internal/journal"
	"drqos/internal/server"
)

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

// handleStream answers POST /v1/replica/stream?from=N[&term=T][&prev_crc=C]
// with one long-lived, full-duplex exchange. Opening it is the standby's
// acknowledgment that everything below from is durably applied over there,
// and its term is the fencing probe — a higher term demotes this node
// before it serves a byte. Then, until either side goes away or the node
// stops, the response body carries every record the moment it is durable
// here (an empty message every PollWait while there is none: the
// heartbeat the standby's failover clock counts), and the request body
// carries the standby's acknowledgments back (readAcks). A record is
// pushed without waiting for the acknowledgment of the one before it.
func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	// Full duplex from the first byte: net/http would otherwise drain the
	// request body before sending any answer, a refusal included, and the
	// body of a stream does not end.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, "stream: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// A stream's connection is never reused: whatever ended the exchange
	// may have left either body mid-message.
	w.Header().Set("Connection", "close")
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		http.Error(w, "stream: from must be a positive sequence number", http.StatusBadRequest)
		return
	}
	peerTerm, _ := strconv.ParseUint(q.Get("term"), 10, 64)
	if peerTerm > n.srv.Term() {
		// The standby promoted past us: we are the stale side. Step down
		// first, answer "demoted" second — never serve under a dead term.
		slog.Warn("replica: demoting, a peer streamed with a higher term", "peer_term", peerTerm, "term", n.srv.Term())
		if err := n.srv.Demote(r.Context(), peerTerm); err != nil {
			http.Error(w, "demote: "+err.Error(), http.StatusInternalServerError)
			return
		}
		n.resetLease()
		writeStreamError(w, http.StatusServiceUnavailable, reasonDemoted,
			fmt.Sprintf("stepped down under term %d", peerTerm))
		return
	}
	if n.stopped() {
		http.Error(w, "stream: node stopping", http.StatusServiceUnavailable)
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
			writeStreamError(w, http.StatusGone, reasonCompacted,
				fmt.Sprintf("record %d is compacted into a snapshot and out of the tail", from-1))
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
	// The first read answers the one refusal left: history no longer held.
	frames, count, err := n.jnl.ReadFrames(from, batchMax)
	if errors.Is(err, journal.ErrCompacted) {
		writeStreamError(w, http.StatusGone, reasonCompacted,
			fmt.Sprintf("records from %d are compacted into a snapshot", from))
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The stream outlives any per-request deadline the server sets.
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	// The probe passed: everything below from is confirmed replicated.
	n.noteAck(from - 1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if rc.Flush() != nil {
		return
	}

	// The stream ends when the standby goes, its acknowledgments stop
	// parsing, a write fails, or the node stops; ending it expires both
	// directions' deadlines, which unblocks whichever read or write is
	// parked, and the handler returns only once the ack reader is done.
	ctx, cancel := context.WithCancel(r.Context())
	defer context.AfterFunc(ctx, func() {
		_ = rc.SetReadDeadline(time.Now())
		_ = rc.SetWriteDeadline(time.Now())
	})()
	defer context.AfterFunc(n.halted, cancel)()
	var sent atomic.Uint64
	sent.Store(from - 1)
	acks := make(chan struct{})
	go func() {
		defer close(acks)
		defer cancel()
		n.readAcks(r.Body, &sent)
	}()
	defer func() {
		cancel()
		<-acks
	}()

	next, idle := from, false
	var hdr []byte
	for {
		if count > 0 || idle {
			m := message{term: n.srv.Term(), durable: n.jnl.DurableSeq(), frames: frames}
			if count > 0 {
				m.verify = n.verifyPoints(ctx, next, next+uint64(count)-1)
			}
			next += uint64(count)
			// Before the write: the standby's acknowledgment may arrive
			// before the flush returns.
			sent.Store(next - 1)
			hdr = appendMessageHeader(hdr[:0], m)
			if _, err := w.Write(hdr); err != nil {
				return
			}
			if _, err := w.Write(frames); err != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		}
		// Park on the event that ends the wait: the journal's durable
		// broadcast wakes it the moment record next exists, and PollWait
		// without one sends the heartbeat. A journal that closed, died or
		// had its history replaced will never make next durable: the
		// stream is held to the heartbeat's deadline and ends, so a standby
		// cannot spin against a primary that cannot write.
		wait, done := context.WithTimeout(ctx, n.cfg.PollWait)
		werr := n.jnl.WaitDurable(wait, next)
		if werr != nil && ctx.Err() == nil && !errors.Is(werr, context.DeadlineExceeded) {
			<-wait.Done()
			done()
			return
		}
		done()
		if ctx.Err() != nil {
			return
		}
		idle = werr != nil
		if frames, count, err = n.jnl.ReadFrames(next, batchMax); err != nil {
			// Compacted past the standby: it reconnects and is told to
			// bootstrap.
			return
		}
	}
}

// readAcks applies a standby's acknowledgments as they arrive on the
// request body: each is a seq the standby holds durably applied, and each
// renews the lease and wakes WaitReplicated (noteAck). An acknowledgment
// never confirms past what this stream sent.
func (n *Node) readAcks(body io.Reader, sent *atomic.Uint64) {
	var ack [8]byte
	for {
		if _, err := io.ReadFull(body, ack[:]); err != nil {
			return
		}
		n.noteAck(min(binary.LittleEndian.Uint64(ack[:]), sent.Load()))
	}
}

// message is one push of the stream from the primary to a standby. On the
// wire, little-endian:
//
//	u32  length of the rest of the message
//	u64  term, u64 durable seq
//	u16  verify point count; per point u64 seq, u16 length, fingerprint
//	...  frames: the journal's CRC frames exactly as stored (DecodeFrames)
//
// A message without frames is the idle heartbeat. The standby answers on
// the request body with 8-byte acknowledgments (a u64 seq each).
type message struct {
	term, durable uint64
	verify        []server.VerifyPoint
	frames        []byte
}

// maxMessage bounds what a standby reads as one message.
const maxMessage = 64 << 20

// appendMessageHeader appends everything of m that precedes its frames.
func appendMessageHeader(buf []byte, m message) []byte {
	size := 8 + 8 + 2 + len(m.frames)
	for _, v := range m.verify {
		size += 8 + 2 + len(v.Fingerprint)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	buf = binary.LittleEndian.AppendUint64(buf, m.term)
	buf = binary.LittleEndian.AppendUint64(buf, m.durable)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.verify)))
	for _, v := range m.verify {
		buf = binary.LittleEndian.AppendUint64(buf, v.Seq)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v.Fingerprint)))
		buf = append(buf, v.Fingerprint...)
	}
	return buf
}

// readMessage reads one message into buf (grown as needed, returned for
// reuse); the message's frames alias it.
func readMessage(r io.Reader, buf []byte) (message, []byte, error) {
	var size [4]byte
	if _, err := io.ReadFull(r, size[:]); err != nil {
		return message{}, buf, err
	}
	n := int(binary.LittleEndian.Uint32(size[:]))
	if n < 18 || n > maxMessage {
		return message{}, buf, fmt.Errorf("replica: stream message of %d bytes", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return message{}, buf, err
	}
	m := message{
		term:    binary.LittleEndian.Uint64(buf),
		durable: binary.LittleEndian.Uint64(buf[8:]),
	}
	points := int(binary.LittleEndian.Uint16(buf[16:]))
	rest := buf[18:]
	for i := 0; i < points; i++ {
		if len(rest) < 10 {
			return message{}, buf, errors.New("replica: truncated verify point")
		}
		seq, fl := binary.LittleEndian.Uint64(rest), int(binary.LittleEndian.Uint16(rest[8:]))
		if len(rest) < 10+fl {
			return message{}, buf, errors.New("replica: truncated verify point")
		}
		m.verify = append(m.verify, server.VerifyPoint{Seq: seq, Fingerprint: string(rest[10 : 10+fl])})
		rest = rest[10+fl:]
	}
	m.frames = rest
	return m, buf, nil
}

// verifyEvery is how many records the newest verify point may trail the
// batch being served before the shipper mints another. A point costs one
// export of the primary's full state and one of the standby's, so a
// divergence is caught within about this many records at a per-record cost
// of a small fraction of an export.
const verifyEvery = 64

// verifyPoints returns the verify points the batch [from, last] carries.
// Points are minted here, by a push to a standby, and nowhere else: state and
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
			return carried // the next push mints
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
