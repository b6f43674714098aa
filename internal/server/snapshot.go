package server

import (
	"time"

	"drqos/internal/stats"
)

// ShardedStats is a sharded plane's GET /v1/stats answer: the aggregated
// service view plus each shard's own Stats.
type ShardedStats struct {
	Shards         int   `json:"shards"`
	Aggregate      Stats `json:"aggregate"`
	CrossAttempts  int64 `json:"cross_attempts"`
	CrossCommitted int64 `json:"cross_committed"`
	CrossAborted   int64 `json:"cross_aborted"`
	CrossActive    int   `json:"cross_active"`
	// CrossTimeouts counts 2PC phase calls that hit their deadline;
	// CrossPending counts decided transactions still awaiting a
	// participant's acknowledgment; CrossAbortReasons tallies aborts by
	// cause.
	CrossTimeouts     int64            `json:"cross_timeouts"`
	CrossPending      int              `json:"cross_pending"`
	CrossAbortReasons map[string]int64 `json:"cross_abort_reasons,omitempty"`
	PerShard          []Stats          `json:"per_shard"`
}

// Stats is a consistent point-in-time snapshot of the admission service:
// the manager-derived fields come from one published epoch, so no event is
// half-applied in them.
type Stats struct {
	// Topology.
	Nodes        int   `json:"nodes"`
	Links        int   `json:"links"`
	CapacityKbps int64 `json:"capacity_kbps"`

	// Connection population.
	Alive            int     `json:"alive"`
	Unprotected      int     `json:"unprotected"`
	AvgBandwidthKbps float64 `json:"avg_bandwidth_kbps"`
	// LevelHistogram counts alive connections per bandwidth level (index 0
	// is the minimum level).
	LevelHistogram []int `json:"level_histogram"`

	// Admission counters (cumulative).
	Requests   int64   `json:"requests"`
	Rejects    int64   `json:"rejects"`
	RejectRate float64 `json:"reject_rate"`

	// Fault state.
	FailedLinks []int `json:"failed_links"`

	// Degraded mode: set after the first detected invariant violation;
	// mutating commands answer 503 until a recovery succeeds (journaled
	// servers) or the operator restarts the daemon.
	Degraded            bool   `json:"degraded"`
	DegradedReason      string `json:"degraded_reason,omitempty"`
	InvariantViolations int64  `json:"invariant_violations"`

	// Overload control plane: the overloaded state (sustained consuming-
	// lane queue delay above target), cumulative shed counters by reason,
	// and per-lane depths and queueing-delay histograms (read live).
	Overloaded       bool                 `json:"overloaded"`
	OverloadEpisodes int64                `json:"overload_episodes"`
	ShedExpired      int64                `json:"shed_expired"`
	ShedCanceled     int64                `json:"shed_canceled"`
	Lanes            map[string]LaneStats `json:"lanes"`

	// Durability and recovery state (all zero for in-memory servers).
	Journaled         bool   `json:"journaled"`
	JournalSeq        uint64 `json:"journal_seq,omitempty"`
	JournalSnapshot   uint64 `json:"journal_snapshot_seq,omitempty"`
	JournalErrors     int64  `json:"journal_errors,omitempty"`
	Recovering        bool   `json:"recovering"`
	Recoveries        int64  `json:"recoveries"`
	RecoveryFailures  int64  `json:"recovery_failures"`
	LastRecoveryError string `json:"last_recovery_error,omitempty"`

	// Group-commit durability (zero unless the journal batches fsyncs):
	// JournalSynced is the highest sequence known durable — acknowledged
	// mutations are always <= it; FsyncBatches/BatchedAppends expose the
	// realized amortization.
	GroupCommit    bool   `json:"group_commit,omitempty"`
	JournalSynced  uint64 `json:"journal_synced_seq,omitempty"`
	FsyncBatches   int64  `json:"fsync_batches,omitempty"`
	BatchedAppends int64  `json:"batched_appends,omitempty"`

	// Epoch describes the published epoch this Stats was served from: its
	// sequence number, its age — the time since the state last changed, or
	// since it froze — and the cumulative publish count. Nil only for a
	// Stats built before the epoch layer existed.
	Epoch *EpochStats `json:"epoch,omitempty"`

	// Command-loop counters (cumulative) and instantaneous queue depth
	// (both lanes combined; per-lane depths live in Lanes).
	Commands   CommandStats `json:"commands"`
	QueueDepth int          `json:"queue_depth"`

	// FailureOutcomes counts what the link failures did to the connections
	// they hit (cumulative).
	FailureOutcomes FailureOutcomes `json:"failure_outcomes"`

	// Forecast summarizes the live analytic control plane (estimated
	// parameters, solve health, predictive latch); nil when disabled. The
	// full distribution lives on GET /v1/forecast.
	Forecast *ForecastStats `json:"forecast,omitempty"`

	// Replica summarizes the replication plane (role, fencing term, stream
	// lag); nil on a server that has never replicated, so non-HA payloads
	// are unchanged.
	Replica *ReplicaStats `json:"replica,omitempty"`
}

// CommandStats counts processed commands by kind.
type CommandStats struct {
	Processed   int64 `json:"processed"`
	Establishes int64 `json:"establishes"`
	Terminates  int64 `json:"terminates"`
	Failures    int64 `json:"failures"`
	Repairs     int64 `json:"repairs"`
	Snapshots   int64 `json:"snapshots"`
}

// FailureOutcomes is the sum of the executed link failures' reports: each
// victim (a connection whose primary crossed the failed link) was activated
// onto its backup, recovered on a new route or dropped; BackupsLost counts
// connections that lost only their backup.
type FailureOutcomes struct {
	Victims     int64 `json:"victims"`
	Activated   int64 `json:"activated"`
	Dropped     int64 `json:"dropped"`
	Recovered   int64 `json:"recovered"`
	BackupsLost int64 `json:"backups_lost"`
}

// LaneStats describes one priority lane: its instantaneous backlog and the
// queueing-delay distribution of everything it has dequeued. With nothing
// dequeued every delay figure is 0 and DelayCount says so.
type LaneStats struct {
	Depth        int     `json:"depth"`
	DelayCount   int     `json:"delay_count"`
	DelayP50Sec  float64 `json:"delay_p50_seconds"`
	DelayP90Sec  float64 `json:"delay_p90_seconds"`
	DelayP99Sec  float64 `json:"delay_p99_seconds"`
	DelayMaxSec  float64 `json:"delay_max_seconds"`
	DelayMeanSec float64 `json:"delay_mean_seconds"`
}

// laneStats reads one lane's live depth and delay histogram.
func laneStats(depth int, delay *stats.Latency) LaneStats {
	d := delay.Summary()
	return LaneStats{
		Depth:        depth,
		DelayCount:   int(d.N),
		DelayP50Sec:  d.P50.Seconds(),
		DelayP90Sec:  d.P90.Seconds(),
		DelayP99Sec:  d.P99.Seconds(),
		DelayMaxSec:  d.Max.Seconds(),
		DelayMeanSec: d.Mean.Seconds(),
	}
}

// overlayLive completes a Stats whose manager-derived fields are already set
// with everything that is read live and from any goroutine: topology
// constants, health flags, counters, lanes, journal and epoch positions.
func (s *Server) overlayLive(st *Stats) {
	st.Nodes = s.graph.NumNodes()
	st.Links = s.graph.NumLinks()
	st.CapacityKbps = s.capacityKbps
	if st.Requests > 0 {
		st.RejectRate = float64(st.Rejects) / float64(st.Requests)
	}
	st.Degraded, st.DegradedReason = s.Degraded()
	st.InvariantViolations = s.invariantViolations.Load()
	st.Overloaded = s.Overloaded()
	st.OverloadEpisodes = s.OverloadEpisodes()
	st.ShedExpired, st.ShedCanceled = s.Sheds()
	st.Lanes = map[string]LaneStats{
		laneFreeing.String():   laneStats(len(s.freeing), &s.delayFreeing),
		laneConsuming.String(): laneStats(len(s.consuming), &s.delayConsuming),
	}
	if s.jnl != nil {
		st.Journaled = true
		st.JournalSeq = s.jnl.LastSeq()
		st.JournalSnapshot = s.jnl.SnapshotSeq()
		st.JournalErrors = s.journalErrors.Load()
		if s.jnl.GroupCommit() {
			st.GroupCommit = true
			st.JournalSynced = s.jnl.SyncedSeq()
			st.FsyncBatches, st.BatchedAppends = s.jnl.GroupCommitStats()
		}
	}
	v := s.View()
	st.Epoch = &EpochStats{
		Seq:        v.Seq,
		AgeSeconds: time.Since(v.PublishedAt).Seconds(),
		Publishes:  s.epochPublishes.Load(),
		Frozen:     s.degraded.Load(),
	}
	st.Recovering, st.Recoveries, st.RecoveryFailures, st.LastRecoveryError = s.RecoveryStatus()
	st.Commands = CommandStats{
		Processed:   s.processed.Load(),
		Establishes: s.establishes.Load(),
		Terminates:  s.terminates.Load(),
		Failures:    s.failures.Load(),
		Repairs:     s.repairs.Load(),
		Snapshots:   s.snapshots.Load(),
	}
	st.QueueDepth = s.QueueDepth()
	activated, dropped, recovered := s.activated.Load(), s.dropped.Load(), s.recovered.Load()
	st.FailureOutcomes = FailureOutcomes{
		Victims:   activated + dropped + recovered,
		Activated: activated, Dropped: dropped, Recovered: recovered,
		BackupsLost: s.backupsLost.Load(),
	}
	st.Forecast = forecastStats(s.fc)
	st.Replica = s.replicaBlock()
}
