package server

import (
	"fmt"
	"io"
)

// writeMetrics renders a Plane's stats answer in the Prometheus text
// exposition format (hand-rolled; the repo deliberately has no external
// dependencies): one server's Stats, or a sharded plane's aggregate under
// the same names plus its partition and cross-shard transaction counters.
func writeMetrics(w io.Writer, answer any) {
	sh, sharded := answer.(ShardedStats)
	st, _ := answer.(Stats)
	if sharded {
		st = sh.Aggregate
	}
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("drqos_connections_alive", "Alive DR-connections.", st.Alive)
	gauge("drqos_connections_unprotected", "Alive DR-connections without a backup channel.", st.Unprotected)
	gauge("drqos_bandwidth_avg_kbps", "Average reserved bandwidth over alive primaries (Kb/s).", st.AvgBandwidthKbps)
	gauge("drqos_reject_rate", "Cumulative fraction of establish requests rejected.", st.RejectRate)
	gauge("drqos_links_failed", "Currently failed links.", len(st.FailedLinks))
	gauge("drqos_command_queue_depth", "Commands buffered in the actor queue.", st.QueueDepth)
	degraded := 0
	if st.Degraded {
		degraded = 1
	}
	gauge("drqos_degraded", "1 when the service refuses mutations after an invariant violation.", degraded)
	overloaded := 0
	if st.Overloaded {
		overloaded = 1
	}
	gauge("drqos_overloaded", "1 while sustained actor-queue delay makes the service shed new capacity-consuming work.", overloaded)
	journaled := 0
	if st.Journaled {
		journaled = 1
	}
	gauge("drqos_journaled", "1 when mutations are persisted to a write-ahead journal.", journaled)
	gauge("drqos_journal_seq", "Sequence number of the last journaled event.", st.JournalSeq)
	gauge("drqos_journal_snapshot_seq", "Sequence number covered by the newest durable snapshot.", st.JournalSnapshot)
	recovering := 0
	if st.Recovering {
		recovering = 1
	}
	gauge("drqos_recovering", "1 while a journal-replay recovery from degraded mode is running.", recovering)
	if st.Epoch != nil {
		gauge("drqos_snapshot_seq", "Sequence number of the published epoch state snapshot serving the read path.", st.Epoch.Seq)
		gauge("drqos_snapshot_age_seconds", "Age of the published epoch snapshot — the read path's staleness bound.", st.Epoch.AgeSeconds)
		counter("drqos_snapshot_publishes_total", "Epoch snapshots published by the actor loop.", st.Epoch.Publishes)
		frozen := 0
		if st.Epoch.Frozen {
			frozen = 1
		}
		gauge("drqos_snapshot_frozen", "1 while epoch publishing is deliberately suspended (degraded mode); exclude snapshot age from staleness alarms while set.", frozen)
	}
	if st.GroupCommit {
		gauge("drqos_journal_synced_seq", "Highest journal sequence known durable (acknowledged mutations are always <= this).", st.JournalSynced)
		counter("drqos_journal_fsync_batches_total", "Group-commit fsync batches issued.", st.FsyncBatches)
		counter("drqos_journal_batched_appends_total", "Journal records made durable by group-commit batches.", st.BatchedAppends)
	}

	counter("drqos_establish_requests_total", "Establish requests offered to admission control.", st.Requests)
	counter("drqos_establish_rejects_total", "Establish requests rejected.", st.Rejects)
	counter("drqos_invariant_violations_total", "Manager invariant violations detected mid-event or by audit.", st.InvariantViolations)
	counter("drqos_journal_errors_total", "Journal append or snapshot failures.", st.JournalErrors)
	counter("drqos_recoveries_total", "Successful recoveries from degraded mode.", st.Recoveries)
	counter("drqos_recovery_failures_total", "Failed recovery attempts.", st.RecoveryFailures)
	counter("drqos_overload_episodes_total", "Times the overloaded state latched.", st.OverloadEpisodes)

	fmt.Fprintf(w, "# HELP drqos_shed_total Queued commands dropped unexecuted because their caller gave up, by reason.\n# TYPE drqos_shed_total counter\n")
	fmt.Fprintf(w, "drqos_shed_total{reason=\"expired\"} %d\n", st.ShedExpired)
	fmt.Fprintf(w, "drqos_shed_total{reason=\"canceled\"} %d\n", st.ShedCanceled)

	fmt.Fprintf(w, "# HELP drqos_queue_depth Commands buffered per priority lane.\n# TYPE drqos_queue_depth gauge\n")
	for _, q := range []string{"freeing", "consuming"} {
		fmt.Fprintf(w, "drqos_queue_depth{q=%q} %d\n", q, st.Lanes[q].Depth)
	}
	fmt.Fprintf(w, "# HELP drqos_queue_delay_seconds Actor-loop queueing delay per priority lane (quantiles of a fixed-bucket histogram).\n# TYPE drqos_queue_delay_seconds summary\n")
	for _, q := range []string{"freeing", "consuming"} {
		ls := st.Lanes[q]
		if ls.DelayCount > 0 {
			fmt.Fprintf(w, "drqos_queue_delay_seconds{q=%q,quantile=\"0.5\"} %g\n", q, ls.DelayP50Sec)
			fmt.Fprintf(w, "drqos_queue_delay_seconds{q=%q,quantile=\"0.9\"} %g\n", q, ls.DelayP90Sec)
			fmt.Fprintf(w, "drqos_queue_delay_seconds{q=%q,quantile=\"0.99\"} %g\n", q, ls.DelayP99Sec)
		}
		fmt.Fprintf(w, "drqos_queue_delay_seconds_count{q=%q} %d\n", q, ls.DelayCount)
	}

	fmt.Fprintf(w, "# HELP drqos_connections_level Alive DR-connections per bandwidth level.\n# TYPE drqos_connections_level gauge\n")
	for lvl, n := range st.LevelHistogram {
		fmt.Fprintf(w, "drqos_connections_level{level=\"%d\"} %d\n", lvl, n)
	}

	if f := st.Forecast; f != nil {
		available := 0
		if f.Available {
			available = 1
		}
		gauge("drqos_forecast_available", "1 once the live Markov forecast has solved at least once.", available)
		stale := 0
		if f.Stale {
			stale = 1
		}
		gauge("drqos_forecast_stale", "1 while the served forecast is an old result republished after a solve failure.", stale)
		predicted := 0
		if f.PredictedOverload {
			predicted = 1
		}
		gauge("drqos_forecast_predicted_overload", "1 while the solved model predicts saturation and pre-latches shedding.", predicted)
		gauge("drqos_forecast_mean_bandwidth_kbps", "Model-predicted steady-state mean bandwidth (Kb/s).", f.MeanBandwidthKbps)
		gauge("drqos_forecast_lambda_per_sec", "Live-estimated effective arrival rate λ.", f.Lambda)
		gauge("drqos_forecast_mu_per_sec", "Live-estimated effective termination rate μ.", f.Mu)
		gauge("drqos_forecast_gamma_per_sec", "Live-estimated effective link-failure rate γ.", f.Gamma)
		gauge("drqos_forecast_delta_per_sec", "Per-channel death rate δ = μ/N̄ of the restart model.", f.Delta)
		gauge("drqos_forecast_pf", "Live-estimated link-sharing probability Pf.", f.Pf)
		gauge("drqos_forecast_ps", "Live-estimated indirect-chaining probability Ps.", f.Ps)
		gauge("drqos_forecast_avg_alive", "Time-weighted mean standing population behind the forecast.", f.AvgAlive)
		gauge("drqos_forecast_age_seconds", "Age of the served forecast solution.", f.AgeSeconds)
		gauge("drqos_forecast_solve_duration_seconds", "Duration of the last successful solve.", f.SolveDurationSeconds)
		fmt.Fprintf(w, "# HELP drqos_forecast_discarded_mass Fraction of observed jumps outside the model's triangular structure, per matrix.\n# TYPE drqos_forecast_discarded_mass gauge\n")
		fmt.Fprintf(w, "drqos_forecast_discarded_mass{matrix=\"A\"} %g\n", f.DiscardedA)
		fmt.Fprintf(w, "drqos_forecast_discarded_mass{matrix=\"B\"} %g\n", f.DiscardedB)
		fmt.Fprintf(w, "drqos_forecast_discarded_mass{matrix=\"T\"} %g\n", f.DiscardedT)
		counter("drqos_forecast_solves_total", "Successful Markov solves.", f.Solves)
		counter("drqos_forecast_solve_errors_total", "Failed or timed-out Markov solves (stale fallback served).", f.SolveErrors)
		counter("drqos_forecast_ignored_transitions_total", "Observed transitions outside the modeled state grid.", f.Ignored)
	}

	if r := st.Replica; r != nil {
		fmt.Fprintf(w, "# HELP drqos_role Replication role of this node (1 on the active label).\n# TYPE drqos_role gauge\ndrqos_role{role=%q} 1\n", r.Role)
		gauge("drqos_replica_term", "Current replication fencing term.", r.Term)
		counter("drqos_promotions_total", "Times this node promoted from follower to primary.", r.Promotions)
		if r.Role == "primary" && r.LeaseEnabled {
			lost := 0
			if r.LeaseLost {
				lost = 1
			}
			gauge("drqos_replica_lease_lost", "1 while the primary's standby-granted replication lease has lapsed and mutations are fenced.", lost)
		}
		if r.AckWaitMsP99 > 0 {
			fmt.Fprintf(w, "# HELP drqos_replica_ack_wait_seconds Time acknowledgments waited for the standby to confirm the record (quantiles of a fixed-bucket histogram).\n# TYPE drqos_replica_ack_wait_seconds summary\n")
			fmt.Fprintf(w, "drqos_replica_ack_wait_seconds{quantile=\"0.5\"} %g\n", r.AckWaitMsP50/1e3)
			fmt.Fprintf(w, "drqos_replica_ack_wait_seconds{quantile=\"0.99\"} %g\n", r.AckWaitMsP99/1e3)
		}
		if r.Role == "follower" {
			gauge("drqos_replica_lag_seq", "Journal records the primary has durably written that this follower has not yet applied.", r.LagSeq)
			gauge("drqos_replica_lag_seconds", "Time since this follower last heard from the primary's stream.", r.LagSeconds)
			counter("drqos_replica_bootstraps_total", "Snapshot images this follower installed over its history since it started.", r.Bootstraps)
			diverged := 0
			if r.Diverged {
				diverged = 1
			}
			gauge("drqos_replica_diverged", "1 after a fingerprint cross-check failed; the follower refuses promotion until re-bootstrapped.", diverged)
		}
	}

	fmt.Fprintf(w, "# HELP drqos_commands_total Commands executed by the actor loop, by kind.\n# TYPE drqos_commands_total counter\n")
	for _, kv := range []struct {
		kind string
		n    int64
	}{
		{"establish", st.Commands.Establishes},
		{"terminate", st.Commands.Terminates},
		{"fail_link", st.Commands.Failures},
		{"repair_link", st.Commands.Repairs},
		{"snapshot", st.Commands.Snapshots},
	} {
		fmt.Fprintf(w, "drqos_commands_total{kind=%q} %d\n", kv.kind, kv.n)
	}

	fo := st.FailureOutcomes
	fmt.Fprintf(w, "# HELP drqos_failure_outcomes_total Connections hit by link failures, by outcome; victims = activated + recovered + dropped, backups_lost counts connections that lost only their backup.\n# TYPE drqos_failure_outcomes_total counter\n")
	for _, kv := range []struct {
		outcome string
		n       int64
	}{
		{"victims", fo.Victims},
		{"activated", fo.Activated},
		{"dropped", fo.Dropped},
		{"recovered", fo.Recovered},
		{"backups_lost", fo.BackupsLost},
	} {
		fmt.Fprintf(w, "drqos_failure_outcomes_total{outcome=%q} %d\n", kv.outcome, kv.n)
	}

	if !sharded {
		return
	}
	gauge("drqos_shards", "Region shards in this deployment.", sh.Shards)
	gauge("drqos_cross_connections_active", "Committed cross-shard connections currently alive.", sh.CrossActive)
	counter("drqos_cross_establish_total", "Cross-shard two-phase establishes attempted.", sh.CrossAttempts)
	counter("drqos_cross_commit_total", "Cross-shard transactions committed.", sh.CrossCommitted)
	counter("drqos_cross_abort_total", "Cross-shard transactions aborted.", sh.CrossAborted)
	counter("drqos_2pc_timeouts_total", "Cross-shard 2PC phase calls that hit their deadline.", sh.CrossTimeouts)
	gauge("drqos_2pc_pending_resolutions", "Decided cross-shard transactions still awaiting a participant acknowledgment.", sh.CrossPending)
	fmt.Fprintf(w, "# HELP drqos_2pc_aborts_total Cross-shard transactions aborted, by reason.\n# TYPE drqos_2pc_aborts_total counter\n")
	for _, reason := range []string{"timeout", "unreachable", "rejected", "overloaded", "degraded", "error"} {
		fmt.Fprintf(w, "drqos_2pc_aborts_total{reason=%q} %d\n", reason, sh.CrossAbortReasons[reason])
	}
	fmt.Fprintf(w, "# HELP drqos_shard_connections_alive Alive connections per shard.\n# TYPE drqos_shard_connections_alive gauge\n")
	for i, shard := range sh.PerShard {
		fmt.Fprintf(w, "drqos_shard_connections_alive{shard=\"%d\"} %d\n", i, shard.Alive)
	}
}
