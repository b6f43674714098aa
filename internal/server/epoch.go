// Epoch state snapshots: an RCU-style read path that takes /v1/stats and
// /metrics off the actor loop entirely.
//
// The command loop — the only goroutine that ever touches the manager —
// publishes an immutable EpochView after mutations: a full ExportState plus
// the aggregates the read endpoints serve, swapped behind an atomic pointer.
// Readers load the pointer and never enqueue a command, so observability
// stays O(1) and contention-free no matter how deep the consuming lane is.
//
// Publish cadence is change-driven with a staleness cap: a mutation marks
// the epoch dirty, and the loop publishes immediately when its queues are
// empty (sequential callers read their own writes) or after EpochInterval
// under sustained load (export cost is amortized across the burst). The
// bound is explicit in the payload — epoch seq, published-at age — and as
// drqos_snapshot_age_seconds, so consumers can reject data older than they
// tolerate. Degraded state is never published: the view keeps describing
// the last trusted state while live overlays (degraded flag, counters)
// tell the truth about the present.
package server

import (
	"sync"
	"time"

	"drqos/internal/manager"
)

// EpochView is one immutable published epoch. Everything in it describes
// the same instant of manager state — no field is newer than another.
// Readers must not mutate it (State and the slices are shared by every
// reader of this epoch).
type EpochView struct {
	// Seq increments on every publish; it is unrelated to journal sequence
	// numbers. PublishedAt anchors the staleness bound.
	Seq         uint64
	PublishedAt time.Time

	// State is the manager's full exported state at publish time;
	// State.Fingerprint() identifies the exact mutation prefix it reflects.
	State *manager.State

	// JournalSeq is the last journaled event covered by this epoch (0 when
	// not journaled).
	JournalSeq uint64

	// Aggregates, computed in-loop at publish time.
	Alive            int
	Unprotected      int
	AvgBandwidthKbps float64
	LevelHistogram   []int
	Requests         int64
	Rejects          int64
	FailedLinks      []int

	// Lane delay digests rendered at publish time. The digests themselves
	// are loop-owned; freezing them into the epoch is what lets StatsView
	// report them without entering the loop. Depths are overlaid live.
	Lanes map[string]LaneStats

	// fp memoizes State.Fingerprint() — see Fingerprint.
	fpOnce sync.Once
	fp     string
}

// Fingerprint returns State.Fingerprint() (the SHA-256 identity of the
// exact mutation prefix this epoch reflects), computed at most once per
// epoch no matter how many readers ask. The replication shipper calls it
// per published epoch to build verify points, so the hash never costs the
// actor loop anything and never repeats across polls of the same epoch.
func (v *EpochView) Fingerprint() string {
	v.fpOnce.Do(func() { v.fp = v.State.Fingerprint() })
	return v.fp
}

// EpochStats is the staleness contract surfaced in Stats. Frozen reports
// that publishing is deliberately suspended (degraded mode): the age keeps
// climbing by design, and staleness alarms must key off Frozen before
// treating a high age as a wedged loop.
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

// EpochPublishes returns how many epochs have been published.
func (s *Server) EpochPublishes() int64 { return s.epochPublishes.Load() }

// markEpochDirty records — loop goroutine only — that manager state or its
// counters changed since the last publish.
func (s *Server) markEpochDirty() { s.epochDirty = true }

// publishEpochIfDue publishes a new epoch when one is owed: state changed,
// the server is not degraded, and either the lanes are idle (publish now,
// so a sequential caller's next read sees this write) or the staleness cap
// expired (publish at most once per EpochInterval under sustained load).
// Loop goroutine only.
func (s *Server) publishEpochIfDue(m *manager.Manager) {
	if !s.epochDirty || s.degraded.Load() {
		return
	}
	if s.QueueDepth() > 0 && time.Since(s.lastPublish) < s.epochInterval {
		return
	}
	s.publishEpoch(m)
}

// publishEpoch unconditionally exports the manager and swaps in a fresh
// epoch. Loop goroutine only (or before the loop starts / inside a loop
// command, which is the same ownership).
func (s *Server) publishEpoch(m *manager.Manager) {
	v := &EpochView{
		Seq:              s.epochSeq + 1,
		PublishedAt:      time.Now(),
		State:            m.ExportState(),
		Alive:            m.AliveCount(),
		Unprotected:      m.UnprotectedCount(),
		AvgBandwidthKbps: m.AverageBandwidth(),
		LevelHistogram:   m.LevelHistogram(nil),
		Requests:         m.Requests(),
		Rejects:          m.Rejects(),
		Lanes:            s.laneStats(),
	}
	for _, l := range v.State.FailedLinks {
		v.FailedLinks = append(v.FailedLinks, int(l))
	}
	if s.jnl != nil {
		v.JournalSeq = s.jnl.LastSeq()
	}
	s.view.Store(v)
	s.epochSeq = v.Seq
	s.epochDirty = false
	s.lastPublish = v.PublishedAt
	s.epochPublishes.Add(1)
}

// StatsView assembles a Stats answer from the published epoch plus live
// overlays (flags, counters, instantaneous depths) — everything /v1/stats
// reports, without entering the command lanes. The manager-derived fields
// are up to one EpochInterval stale under load (see Stats.Epoch for the
// exact bound); the overlays are current.
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
		Lanes:            make(map[string]LaneStats, len(v.Lanes)),
	}
	// Frozen delay digests from the epoch, live depths from the channels.
	for name, ls := range v.Lanes {
		ls.Depth = len(s.freeing)
		if name == laneConsuming.String() {
			ls.Depth = len(s.consuming)
		}
		st.Lanes[name] = ls
	}
	s.overlayLive(&st)
	return st
}

// AuditEpoch runs the full invariant audit against the published epoch —
// off the actor loop, against a manager rebuilt from the epoch's State.
// It reports the epoch's seq and the audit verdict. Unlike CheckInvariants
// it cannot discover corruption newer than the epoch and never flips the
// live server degraded; it exists so operators can audit without queueing
// behind a backlog.
func (s *Server) AuditEpoch() (uint64, error) {
	v := s.View()
	m, err := manager.Restore(s.graph, s.cfg, v.State)
	if err != nil {
		return v.Seq, err
	}
	return v.Seq, m.CheckInvariants()
}
