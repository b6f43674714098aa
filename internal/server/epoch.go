// Epochs: an RCU-style read path that takes /v1/stats and /metrics off the
// actor loop entirely.
//
// An epoch is what its readers use — the aggregates the paper describes a
// network by (level occupancy, mean reserved bandwidth, admission counters,
// failed links) plus the journal position they are exact at. The command
// loop — the only goroutine that ever touches the manager — publishes one
// after every command that changed the manager, swapped behind an atomic
// pointer; the manager keeps every aggregate incrementally, so a publish
// costs O(levels + links) whatever the population and there is nothing to
// amortise: no cadence, no dirty bit. Readers load the pointer and never
// enqueue a command, so observability stays O(1) and contention-free no
// matter how deep the consuming lane is, and an acknowledged mutation is
// visible to its caller's very next read.
//
// Degraded state is never published: the view keeps describing the last
// trusted state while live overlays (degraded flag, counters, lane delays)
// tell the truth about the present. Full state is not in an epoch; it
// leaves the loop through ExportState only.
package server

import (
	"context"
	"errors"
	"time"

	"drqos/internal/manager"
)

// aggregates is everything the read endpoints say about a manager: the
// snapshot header's aggregates (manager.SnapshotHeader) plus the mean
// reserved bandwidth.
type aggregates struct {
	Alive            int
	Unprotected      int
	AvgBandwidthKbps float64
	LevelHistogram   []int
	Requests         int64
	Rejects          int64
	FailedLinks      []int
}

// aggregatesOf reads m's aggregates: O(levels + links), independent of the
// population. Loop goroutine only, like every read of a live manager.
func aggregatesOf(m *manager.Manager) aggregates {
	h := m.SnapshotHeader()
	return aggregates{
		Alive:            h.Alive,
		Unprotected:      h.Unprotected,
		AvgBandwidthKbps: m.AverageBandwidth(),
		LevelHistogram:   h.LevelHistogram,
		Requests:         h.Requests,
		Rejects:          h.Rejects,
		FailedLinks:      h.FailedLinks,
	}
}

// EpochView is one immutable published epoch. Everything in it describes
// the same instant of manager state — no field is newer than another.
// Readers must not mutate it (the slices are shared by every reader of this
// epoch).
type EpochView struct {
	// Seq increments on every publish; it is unrelated to journal sequence
	// numbers. PublishedAt is when the state last changed or, degraded,
	// froze.
	Seq         uint64
	PublishedAt time.Time

	// JournalSeq is the last journaled event covered by this epoch (0 when
	// not journaled).
	JournalSeq uint64

	aggregates
}

// EpochStats is the epoch block of Stats. Frozen reports that publishing
// is deliberately suspended (degraded mode): the age keeps climbing by
// design, and staleness alarms must key off Frozen before treating a high
// age as a wedged loop.
type EpochStats struct {
	Seq        uint64  `json:"seq"`
	AgeSeconds float64 `json:"age_seconds"`
	Publishes  int64   `json:"publishes"`
	Frozen     bool    `json:"frozen,omitempty"`
}

// View returns the current published epoch. Never nil after construction
// (the constructor publishes epoch 1 before the loop starts) and never
// blocks: this is the whole point of the epoch layer.
func (s *Server) View() *EpochView { return s.view.Load() }

// publishEpoch swaps in a fresh epoch unless the server is degraded. Loop
// goroutine only (or before the loop starts / inside a loop command, which
// is the same ownership).
func (s *Server) publishEpoch(m *manager.Manager) {
	if s.degraded.Load() {
		return
	}
	v := &EpochView{
		Seq:         s.epochSeq + 1,
		PublishedAt: time.Now(),
		aggregates:  aggregatesOf(m),
	}
	if s.jnl != nil {
		v.JournalSeq = s.jnl.LastSeq()
	}
	s.view.Store(v)
	s.epochSeq = v.Seq
	s.epochPublishes.Add(1)
}

// StatsView assembles a Stats answer from the published epoch plus live
// overlays (flags, counters, lane depths and delays) — everything /v1/stats
// reports, without entering the command lanes. The manager-derived fields
// are exact as of the last applied mutation (the last trusted one while
// degraded); the overlays are current.
func (s *Server) StatsView() Stats {
	v := s.View()
	st := Stats{
		Alive:            v.Alive,
		Unprotected:      v.Unprotected,
		AvgBandwidthKbps: v.AvgBandwidthKbps,
		LevelHistogram:   v.LevelHistogram,
		Requests:         v.Requests,
		Rejects:          v.Rejects,
		FailedLinks:      v.FailedLinks,
	}
	s.overlayLive(&st)
	return st
}

// Snapshot is StatsView behind an ordering barrier: it publishes inside the
// loop, so the answer covers every command the loop ran before it.
func (s *Server) Snapshot(ctx context.Context) (Stats, error) {
	return query(s, ctx, func(m *manager.Manager) (Stats, error) {
		s.snapshots.Add(1)
		s.publishEpoch(m)
		return s.StatsView(), nil
	})
}

// ExportState is the one door full state leaves the loop through: a single
// command takes the manager's exported state and the journal sequence
// number it is the replay of (0 when not journaled). Everything that needs
// more than an epoch's aggregates — fingerprints, replica verify points,
// the episode oracle's diffs — asks here, when it needs it.
func (s *Server) ExportState(ctx context.Context) (uint64, *manager.State, error) {
	ex, err := s.export(ctx, false)
	return ex.seq, ex.state, err
}

// Invariants answers GET /v1/invariants for one plane, single or one shard
// of many: a single loop command runs the consistency audit of
// CheckInvariants and exports the state it audited, so verdict, fingerprint
// and journal position are of one instant. Two replicas, or one plane across
// a restart, hold the same state iff they report the same fingerprint at the
// same seq. A dirty audit answers its violation and the seq, and no
// fingerprint; a closed server answers only ErrServerClosed.
func (s *Server) Invariants(ctx context.Context) (map[string]any, error) {
	ex, err := s.export(ctx, true)
	if errors.Is(err, ErrServerClosed) {
		return nil, err
	}
	// Degraded is sticky: a clean audit now does not un-corrupt the event
	// that tripped it, so the flag is reported either way.
	degraded, reason := s.Degraded()
	body := map[string]any{"ok": err == nil, "degraded": degraded, "degraded_reason": reason, "journal_seq": ex.seq}
	if err != nil {
		body["error"] = err.Error()
	} else {
		body["fingerprint"] = ex.state.Fingerprint()
	}
	return body, nil
}

// exported is ExportState's answer as one value.
type exported struct {
	seq   uint64
	state *manager.State
}

// export is the command behind ExportState and Invariants. With audit set it
// first runs the consistency audit of CheckInvariants; a dirty audit
// answers its violation and the position, and no state.
func (s *Server) export(ctx context.Context, audit bool) (exported, error) {
	return query(s, ctx, func(m *manager.Manager) (ex exported, err error) {
		if s.jnl != nil {
			ex.seq = s.jnl.LastSeq()
		}
		if audit {
			err = s.audit(m)
		}
		if err == nil {
			ex.state = m.ExportState()
		}
		return ex, err
	})
}

// StateFingerprint returns the canonical hex digest of the manager's
// exported state — the bit-identity probe replicas, shards and the episode
// oracle compare across crash, replay and failover.
func (s *Server) StateFingerprint(ctx context.Context) (string, error) {
	_, st, err := s.ExportState(ctx)
	if err != nil {
		return "", err
	}
	return st.Fingerprint(), nil
}
