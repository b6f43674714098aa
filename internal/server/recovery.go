// Supervised recovery: rebuilding a trusted manager from the durable
// journal and swapping it into the command loop, so a degraded server
// returns to service without a restart.
//
// The state machine is degraded → recovering → healthy:
//
//   - degraded: an invariant violation latched; mutations answer 503; no
//     events are journaled (so the journal keeps describing the last
//     trusted state).
//   - recovering: Recover reloads the journal, rebuilds a fresh manager
//     (snapshot restore + strict event replay), audits it with the full
//     invariant check, and — only if everything passes — swaps it in.
//   - healthy: the swap command (running inside the loop) installs the new
//     manager and un-latches degraded in one atomic step; the next command
//     sees a clean manager.
//
// Recovery is refused (the server stays degraded) when the journal itself
// is damaged, the rebuilt state fails its audit, or the snapshot header's
// aggregates disagree with the rebuilt manager. Those cases mean replaying
// the history reproduces the corruption — i.e. the bad state was caused by
// a journaled event, not by out-of-band damage — and serving it would be
// lying about dependability.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/topology"
)

// ErrJournal reports a journal append, reload or rebuild failure. Mutations
// that cannot be journaled are refused (write-ahead discipline).
var ErrJournal = errors.New("server: journal error")

// ErrNoJournal reports a recovery request against a server that runs
// without a journal — there is nothing to rebuild from.
var ErrNoJournal = errors.New("server: no journal configured")

// ErrNotDegraded reports a recovery request while the server is healthy.
var ErrNotDegraded = errors.New("server: not degraded, nothing to recover")

// ErrRecoveryInProgress reports a recovery request while another recovery
// is already running.
var ErrRecoveryInProgress = errors.New("server: recovery already in progress")

// The automatic-recovery supervisor's backoff: the delay after its first
// failed attempt, doubling up to the cap.
const (
	recoverInitialBackoff = 100 * time.Millisecond
	recoverMaxBackoff     = 5 * time.Second
)

// RecoveryStatus reports the recovery counters for stats and metrics.
func (s *Server) RecoveryStatus() (recovering bool, recoveries, failures int64, lastErr string) {
	s.lastRecoveryMu.Lock()
	lastErr = s.lastRecoveryErr
	s.lastRecoveryMu.Unlock()
	return s.recovering.Load(), s.recoveries.Load(), s.recoveryFailures.Load(), lastErr
}

func (s *Server) setLastRecoveryErr(msg string) {
	s.lastRecoveryMu.Lock()
	s.lastRecoveryErr = msg
	s.lastRecoveryMu.Unlock()
}

// Recover rebuilds a manager from the journal and, if it passes the full
// invariant audit, swaps it into the command loop and un-latches degraded
// mode. It returns the journal sequence number the rebuilt manager covers.
// Only one recovery runs at a time; concurrent calls get
// ErrRecoveryInProgress.
//
// Recovery can only succeed when the corruption was out-of-band (a cosmic-
// ray bit flip, a bug in an aggregate cache): replaying the journal then
// reproduces the correct state. If a journaled event itself corrupts the
// manager deterministically, replay reproduces the corruption, the audit
// fails, and Recover refuses — the honest outcome.
func (s *Server) Recover(ctx context.Context) (uint64, error) {
	if s.jnl == nil {
		return 0, ErrNoJournal
	}
	if ok, _ := s.Degraded(); !ok {
		return 0, ErrNotDegraded
	}
	seq, err := s.Reseed(ctx)
	if err == nil {
		slog.Info("recovered: rebuilt from the journal, serving mutations again", "seq", seq)
	}
	return seq, err
}

func (s *Server) recoverOnce(ctx context.Context) (uint64, error) {
	// Degraded mode guarantees append quiescence: every mutating command is
	// refused before it journals, so the reload sees the complete history.
	rec, err := s.jnl.Reload()
	if err != nil {
		return 0, fmt.Errorf("%w: reload: %v", ErrJournal, err)
	}
	fresh, txns, err := Rebuild(s.graph, s.cfg, rec)
	if err != nil {
		return 0, err
	}
	// Swap inside the loop: installing the manager and un-latching degraded
	// happen in one command, so every other command sees either (degraded,
	// old manager) or (healthy, new manager) — never a mix. The swap rides
	// the freeing lane (it is what un-wedges the service, so it must not
	// queue behind backlogged establishes) and is critical: once accepted
	// it always executes, even if ctx dies.
	if err := s.do(ctx, true, func(*manager.Manager) error {
		// The journal is the durable term authority: adopt whatever fencing
		// term the reload surfaced (snapshot header or KindTerm records), so
		// a rebuilt replica resumes fencing where its history left off.
		if rec.Term > s.term.Load() {
			s.term.Store(rec.Term)
		}
		s.mgr = fresh
		// The transaction table is rebuilt alongside the manager it
		// indexes into. In-flight (uncommitted) transactions stay pending:
		// resolving them is the coordinator's call, not this shard's.
		s.txns = txns
		s.eventsSinceSnap = 0
		// Count the recovery before the un-latch: a reader that sees the
		// plane healthy again also sees the recovery that healed it.
		s.recoveries.Add(1)
		s.setLastRecoveryErr("")
		s.degradedMu.Lock()
		s.degradedReason = ""
		s.degradedMu.Unlock()
		s.degraded.Store(false)
		// Degraded mode froze epoch publishing at the last trusted state;
		// the rebuilt manager IS the trusted state now, so publish it
		// unconditionally before anyone reads post-recovery stats.
		s.publishEpoch(fresh)
		return nil
	}); err != nil {
		return 0, err
	}
	return rec.LastSeq, nil
}

// superviseRecovery is the automatic-recovery loop, spawned by
// noteViolation under Options.AutoRecover. Capped exponential backoff;
// stops on success or at shutdown.
func (s *Server) superviseRecovery() {
	backoff := recoverInitialBackoff
	for {
		_, err := s.Recover(context.Background())
		switch {
		case err == nil, errors.Is(err, ErrNotDegraded), errors.Is(err, ErrNoJournal):
			return // recovered (possibly by a concurrent manual call)
		case errors.Is(err, ErrServerClosed):
			return
		}
		select {
		case <-s.stop:
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, recoverMaxBackoff)
	}
}

// Rebuild reconstructs a manager and its cross-shard transaction table from
// recovered journal state: restore the snapshot (if any), cross-check it
// against the snapshot header's aggregates, strictly replay the event tail,
// and run the full invariant audit. Any disagreement is an error — callers
// must refuse to serve a state that replay cannot vouch for. The snapshot
// header seeds the committed transactions and the tail replays through the
// same transition function the live path used, so the table comes out
// exactly as the live server held it; it seeds Options.Txns, and stays
// empty for a standalone journal.
func Rebuild(g *topology.Graph, cfg manager.Config, rec *journal.Recovered) (*manager.Manager, *TxnTable, error) {
	var m *manager.Manager
	var err error
	txns := &TxnTable{}
	if rec.SnapshotHeader != nil {
		st, uerr := manager.UnmarshalState(rec.SnapshotBody)
		if uerr != nil {
			return nil, nil, fmt.Errorf("%w: snapshot seq %d: %v", ErrJournal, rec.SnapshotSeq, uerr)
		}
		m, err = manager.Restore(g, cfg, st)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot seq %d: %v", ErrJournal, rec.SnapshotSeq, err)
		}
		if err := crossCheckSnapshot(m, rec.SnapshotHeader); err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot seq %d: %v", ErrJournal, rec.SnapshotSeq, err)
		}
		txns.high = rec.SnapshotHeader.TxnHigh
		for _, ts := range rec.SnapshotHeader.Txns {
			txns.seedCommitted(ts, m)
		}
	} else {
		m, err = manager.New(g, cfg)
		if err != nil {
			return nil, nil, err
		}
	}
	for _, ev := range rec.Events {
		if err := Replay(m, txns, ev); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		return nil, nil, fmt.Errorf("%w: replayed state fails audit: %v", ErrJournal, err)
	}
	return m, txns, nil
}

// crossCheckSnapshot compares the restored manager against the aggregates
// the snapshot header recorded at write time. A mismatch means the restore
// machinery (not the disk — the body already passed its CRC) disagrees with
// the state it was handed.
func crossCheckSnapshot(m *manager.Manager, hdr *journal.SnapshotHeader) error {
	got := m.SnapshotHeader()
	if got.Alive != hdr.Alive {
		return fmt.Errorf("restored %d alive connections, header says %d", got.Alive, hdr.Alive)
	}
	if got.Unprotected != hdr.Unprotected {
		return fmt.Errorf("restored %d unprotected, header says %d", got.Unprotected, hdr.Unprotected)
	}
	if got.Requests != hdr.Requests || got.Rejects != hdr.Rejects {
		return fmt.Errorf("restored counters %d/%d, header says %d/%d",
			got.Requests, got.Rejects, hdr.Requests, hdr.Rejects)
	}
	hist := got.LevelHistogram
	for l := 0; l < len(hist) || l < len(hdr.LevelHistogram); l++ {
		var have, want int
		if l < len(hist) {
			have = hist[l]
		}
		if l < len(hdr.LevelHistogram) {
			want = hdr.LevelHistogram[l]
		}
		if have != want {
			return fmt.Errorf("restored level histogram [%d]=%d, header says %d", l, have, want)
		}
	}
	if len(got.FailedLinks) != len(hdr.FailedLinks) {
		return fmt.Errorf("restored %d failed links, header says %d", len(got.FailedLinks), len(hdr.FailedLinks))
	}
	return nil
}
