// Replication role state machine: the server-side half of primary/backup
// replication (the network half lives in internal/replica).
//
// A server is either the primary — it originates mutations, journals them,
// and lets a shipper stream the journal to standbys — or a follower, whose
// state advances exclusively through ApplyReplicated: each shipped record
// is appended to the local journal under the primary's own sequence number
// (write-ahead, exactly like a native mutation) and replayed into the live
// manager, so the standby is a continuously-warm copy, not a cold journal.
// Mutating commands on a follower answer ErrNotPrimary.
//
// Failover is a term change. Promote journals a KindTerm record carrying
// the next monotonic term, flips the role, and publishes a fresh epoch —
// one loop command, reusing the same atomicity the recovery swap relies
// on. The term is the fence: it rides every snapshot header and survives
// restarts (journal.Recovered.Term), a stream opened by a higher-term
// replica demotes a stale primary (Demote), and a follower refuses stream
// batches from a lower term, so a rejoining ex-primary can never push or serve
// stale mutations.
//
// Divergence safety: the shipper attaches verify points — (journal seq,
// state fingerprint) pairs it mints through ExportState while a standby
// streams — and the follower recomputes the SHA-256 state fingerprint the
// moment its applied prefix reaches a verify point's seq. Any mismatch latches the
// follower degraded (alarm, promotion refused) instead of letting a
// silently-diverged copy take over.
package server

import (
	"context"
	"errors"
	"fmt"

	"drqos/internal/journal"
	"drqos/internal/manager"
)

// ErrDiverged reports that a follower's replayed state no longer matches
// the primary's fingerprint at the same journal prefix. The follower is
// latched degraded and must re-bootstrap from a primary snapshot before it
// may serve or promote.
var ErrDiverged = errors.New("server: replica state diverged from primary fingerprint")

// VerifyPoint pins the primary's state fingerprint at an exact journal
// prefix: after applying the record with Seq, a correct follower's manager
// exports a state whose Fingerprint() equals Fingerprint.
type VerifyPoint struct {
	Seq         uint64 `json:"seq"`
	Fingerprint string `json:"fingerprint"`
}

// ReplicaStats is the replication block of Stats (/v1/stats "replica").
// The server fills Role/Term/Promotions; the shipper or follower loop in
// internal/replica supplies the rest through Options.ReplicaStats.
type ReplicaStats struct {
	Role       string `json:"role"`
	Term       uint64 `json:"term"`
	Promotions int64  `json:"promotions"`

	// Follower side.
	PrimaryURL      string  `json:"primary_url,omitempty"`
	AppliedSeq      uint64  `json:"applied_seq,omitempty"`
	LastVerifiedSeq uint64  `json:"last_verified_seq,omitempty"`
	LagSeq          int64   `json:"lag_seq"`
	LagSeconds      float64 `json:"lag_seconds"`
	// Bootstraps counts the snapshot images this follower installed over
	// its history since it started.
	Bootstraps int64 `json:"bootstraps,omitempty"`
	Diverged   bool  `json:"diverged,omitempty"`

	// Primary side.
	Followers     int    `json:"followers,omitempty"`
	ReplicatedSeq uint64 `json:"replicated_seq,omitempty"`
	// LeaseEnabled reports that this primary gates acknowledgments on a
	// standby-granted lease; LeaseLost that the lease has lapsed and the
	// node is fenced (mutations answer 503 until a standby confirms again).
	LeaseEnabled bool `json:"lease_enabled,omitempty"`
	LeaseLost    bool `json:"lease_lost,omitempty"`
	// AckWaitMsP50/P99 are quantiles of how long acknowledgments
	// a standby confirmed waited for that confirmation (the wait-replicated
	// stage alone, local durability excluded); absent until one has.
	AckWaitMsP50 float64 `json:"ack_wait_ms_p50,omitempty"`
	AckWaitMsP99 float64 `json:"ack_wait_ms_p99,omitempty"`
}

// Role reports the replication role: "primary" or "follower".
func (s *Server) Role() string {
	if s.follower.Load() {
		return "follower"
	}
	return "primary"
}

// IsFollower reports whether the server is in the follower role.
func (s *Server) IsFollower() bool { return s.follower.Load() }

// Term returns the current replication term (0 on a never-replicated
// server).
func (s *Server) Term() uint64 { return s.term.Load() }

// ApplyReplicated applies a batch of journal records shipped from the
// primary: each record is appended to the local journal under the
// primary's sequence number and replayed into the live manager, KindTerm
// records advance the fencing term, and verify points are checked the
// moment the applied prefix reaches them. It returns the highest sequence
// applied without waiting for it to become durable: the follower's
// acknowledgment waits for that (journal.WaitDurable) while the next batch
// applies, and must never report a position that is not durable here.
//
// The batch stops at the first error; records before it are applied and
// kept (they extend the primary's history, a prefix is always safe).
// Records that do not extend the local tip exactly are refused by the
// journal, so re-delivered duplicates fail fast instead of forking state.
func (s *Server) ApplyReplicated(ctx context.Context, evs []journal.Event, verify []VerifyPoint) (uint64, error) {
	if s.jnl == nil {
		return 0, fmt.Errorf("%w: replication requires a journal", ErrJournal)
	}
	if len(evs) == 0 {
		return s.jnl.DurableSeq(), nil
	}
	// applied is the last applied seq, whether or not the batch then
	// stopped on an error.
	type applied struct {
		seq uint64
		err error
	}
	a, err := query(s, ctx, func(m *manager.Manager) (a applied, _ error) {
		if err := s.refuseIfDegraded(); err != nil {
			return applied{err: err}, nil
		}
		if !s.follower.Load() {
			return applied{err: fmt.Errorf("%w: primary does not accept a replication stream", ErrConflict)}, nil
		}
		vi := 0
		for len(verify) > vi && verify[vi].Seq <= s.jnl.LastSeq() {
			vi++ // verify points already behind our tip were checked earlier
		}
		for _, ev := range evs {
			seq, err := s.jnl.AppendReplicated(ev)
			if err != nil {
				s.journalErrors.Add(1)
				a.err = fmt.Errorf("%w: %v", ErrJournal, err)
				break
			}
			s.eventsSinceSnap++
			if ev.Kind == journal.KindTerm && ev.Term > s.term.Load() {
				// The primary's own promotion history; adopt the term so a
				// later local promotion fences above it.
				s.term.Store(ev.Term)
			}
			if err := Replay(m, s.txns, ev); err != nil {
				// The journal holds a record the state machine rejects: this
				// copy can no longer vouch for the primary's history.
				// No auto-recovery: local replay reproduces the divergent
				// state, so only a snapshot re-bootstrap from the primary
				// (the replica layer's job) can clear it.
				reason := fmt.Sprintf("replicated apply failed: %v", err)
				s.latchDegraded(reason)
				a.err = fmt.Errorf("%w: %s", ErrDiverged, reason)
				break
			}
			a.seq = seq
			if vi < len(verify) && verify[vi].Seq == seq {
				if fp := m.ExportState().Fingerprint(); fp != verify[vi].Fingerprint {
					reason := fmt.Sprintf("fingerprint mismatch at seq %d: local %s, primary %s",
						seq, fp, verify[vi].Fingerprint)
					s.latchDegraded(reason)
					a.err = fmt.Errorf("%w: %s", ErrDiverged, reason)
					break
				}
				vi++
			}
		}
		// Whatever prefix of the batch applied changed the manager (both are
		// no-ops once a divergence latched degraded).
		s.maybeSnapshot(m)
		s.publishEpoch(m)
		return a, nil
	})
	if err != nil {
		return 0, err
	}
	return a.seq, a.err
}

// Promote flips a follower into the primary role. Inside one loop command
// it journals a KindTerm record carrying the next monotonic term (the
// fence a rejoining ex-primary will trip over), flips the role, and
// publishes a fresh epoch so /readyz and /v1/stats report "primary"
// immediately; the caller is only acknowledged once the term record is
// durable. A degraded (e.g. diverged) follower refuses promotion, and
// promoting a primary is a conflict.
func (s *Server) Promote(ctx context.Context) (uint64, error) {
	type promoted struct{ term, seq uint64 }
	// Critical, freeing lane: the promotion that un-wedges a cluster must
	// not queue behind consuming work or be shed by its caller's deadline
	// half-way through.
	p, err := exec(s, ctx, laneFreeing, true, func(m *manager.Manager) (promoted, error) {
		if err := s.refuseIfDegraded(); err != nil {
			return promoted{}, fmt.Errorf("promotion refused: %w", err)
		}
		if !s.follower.Load() {
			return promoted{term: s.term.Load()}, fmt.Errorf("%w: already primary", ErrConflict)
		}
		newTerm := s.term.Load() + 1
		seq, err := s.journalAppend(journal.Event{Kind: journal.KindTerm, Term: newTerm})
		if err != nil {
			return promoted{}, err
		}
		s.term.Store(newTerm)
		s.follower.Store(false)
		s.promotions.Add(1)
		s.publishEpoch(m)
		return promoted{newTerm, seq}, nil
	})
	if err != nil {
		return p.term, err
	}
	// The new term must be durable before this node serves mutations under
	// it — otherwise a crash-restart could resurrect the old term and
	// un-fence the ex-primary.
	if derr := s.waitDurable(ctx, p.seq); derr != nil {
		return 0, derr
	}
	return p.term, nil
}

// Demote steps a stale primary down after evidence of a higher term — a
// stream or admin call from a replica that promoted while this node was
// partitioned. The higher term is journaled and adopted and the role flips
// to follower, so in-flight and future mutations refuse with ErrNotPrimary
// and the node re-syncs from the new primary instead of serving stale
// writes. A term not above the current one is ignored (nil): stale
// demotion requests must not bounce a healthy primary.
func (s *Server) Demote(ctx context.Context, term uint64) error {
	if term <= s.term.Load() {
		return nil
	}
	return s.do(ctx, true, func(m *manager.Manager) error {
		if term <= s.term.Load() {
			return nil
		}
		if _, err := s.journalAppend(journal.Event{Kind: journal.KindTerm, Term: term}); err != nil {
			// Journaling the fence failed; flip the role anyway — refusing
			// mutations matters more than remembering why across a restart
			// (the next stream batch re-delivers the term record).
			s.journalErrors.Add(1)
		}
		s.term.Store(term)
		s.follower.Store(true)
		s.publishEpoch(m)
		return nil
	})
}

// Reseed rebuilds the manager from the journal and swaps it into the loop
// regardless of degraded state — the follower's re-bootstrap path after
// InstallSnapshot replaced the journal's contents with a primary snapshot
// (where Recover would refuse with ErrNotDegraded on a healthy follower).
// The swap also clears a divergence latch: the installed snapshot IS the
// primary's state, so the local copy is trustworthy again.
func (s *Server) Reseed(ctx context.Context) (uint64, error) {
	if s.jnl == nil {
		return 0, ErrNoJournal
	}
	if !s.recovering.CompareAndSwap(false, true) {
		return 0, ErrRecoveryInProgress
	}
	defer s.recovering.Store(false)
	seq, err := s.recoverOnce(ctx)
	if err != nil {
		s.recoveryFailures.Add(1)
		s.setLastRecoveryErr(err.Error())
		return 0, err
	}
	return seq, nil
}

// SnapshotNow writes a durable state snapshot immediately (same rules as
// the automatic cadence: refused while degraded or while a cross-shard
// transaction is pending). The shipper uses it to produce a bootstrap
// image on demand when a standby needs one and no snapshot exists yet.
func (s *Server) SnapshotNow(ctx context.Context) error {
	if s.jnl == nil {
		return ErrNoJournal
	}
	return s.do(ctx, false, func(m *manager.Manager) error {
		if err := s.refuseIfDegraded(); err != nil {
			return err
		}
		if s.txns.pending() {
			return fmt.Errorf("%w: cross-shard transaction pending", ErrConflict)
		}
		if err := s.writeSnapshot(m); err != nil {
			s.journalErrors.Add(1)
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
		s.eventsSinceSnap = 0
		return nil
	})
}

// replicaBlock assembles the Stats replication block: nil for the common
// non-replicated server (its /v1/stats payload stays byte-identical to the
// pre-replication format), populated as soon as any replication state
// exists — a stats hook, the follower role, or a nonzero term.
func (s *Server) replicaBlock() *ReplicaStats {
	var rs *ReplicaStats
	if s.replicaStats != nil {
		rs = s.replicaStats()
	}
	if rs == nil {
		if !s.follower.Load() && s.term.Load() == 0 && s.promotions.Load() == 0 {
			return nil
		}
		rs = &ReplicaStats{}
	}
	rs.Role = s.Role()
	rs.Term = s.term.Load()
	rs.Promotions = s.promotions.Load()
	return rs
}
