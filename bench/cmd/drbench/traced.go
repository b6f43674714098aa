package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"drqos/bench/layers"
	"drqos/bench/load"
	"drqos/bench/script"
	"drqos/bench/spans"
)

// replaySeconds sizes the in-process replays: the same script, cut to the
// operations a window this long would hold. They run single-threaded at
// four or five entry points, so they get a fraction of the timed window.
const replaySeconds = 1

// perLayer lists every per-layer metric and its unit, in report order. A
// metric that does not apply to a workload (journal.* in memory, shard.* on
// a single plane, manager.* behind the coordinator, …) reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"routing.route_us_p50", "us"},
	{"manager.establish_us_p50", "us"},
	{"manager.terminate_us_p50", "us"},
	{"manager.faillink_us_p50", "us"},
	{"manager.repairlink_us_p50", "us"},
	{"manager.allocs_per_establish", "count"},
	{"manager.bytes_per_establish", "bytes"},
	{"manager.level_changes_per_op", "count"},
	{"manager.exportstate_us", "us"},
	{"manager.state_bytes", "bytes"},
	{"server.loop_self_us_p50", "us"},
	{"server.queue_wait_ms_p50.consuming", "ms"},
	{"server.queue_wait_ms_p50.freeing", "ms"},
	{"server.epoch_publishes", "count"},
	{"server.epoch_age_ms", "ms"},
	{"server.shed_total", "count"},
	{"overload.episodes", "count"},
	{"http.handler_self_us_p50", "us"},
	{"http.req_bytes_per_establish", "bytes"},
	{"http.resp_bytes_per_establish", "bytes"},
	{"http.establish_p99_ms", "ms"},
	{"http.terminate_p50_ms", "ms"},
	{"http.terminate_p99_ms", "ms"},
	{"http.read_p99_ms", "ms"},
	{"http.read_stats_p50_ms", "ms"},
	{"http.read_point_p50_ms", "ms"},
	{"http.fault_p50_ms", "ms"},
	{"journal.append_us_p50", "us"},
	{"journal.wait_durable_us_p50", "us"},
	{"journal.appends_per_fsync", "ratio"},
	{"journal.bytes_per_op", "bytes"},
	{"shard.intra_establish_us_p50", "us"},
	{"shard.cross_establish_us_p50", "us"},
	{"shard.cross_attempts", "count"},
	{"shard.cross_aborted", "count"},
	{"shard.cross_timeouts", "count"},
	{"shard.pending_resolutions_max", "count"},
	{"replica.ack_wait_us_p50", "us"},
	{"replica.lag_seq_max", "count"},
	{"replica.stream_bytes_per_op", "bytes"},
	{"replica.lease_lost", "count"},
	{"process.cpu_ms_per_op", "ms"},
	{"machine.speed_factor", "ratio"},
	{"script.respent_slots", "count"},
	{"script.gone", "count"},
	{"trace.overhead_share", "ratio"},
}

// statsWatch folds the stats payloads the script's own reads fetch during
// the run into the gauges only visible in flight.
type statsWatch struct {
	mu         sync.Mutex
	epochAges  []time.Duration
	pendingMax int
	lagMax     int64
}

func (s *statsWatch) observe(kind script.Kind, status int, body []byte) {
	if kind != script.ReadStats || status != 200 {
		return
	}
	var doc statsDoc
	if json.Unmarshal(body, &doc) != nil {
		return // the run's own status check reports a broken daemon
	}
	age := doc.Epoch.AgeSeconds
	for _, sh := range doc.PerShard {
		age = max(age, sh.Epoch.AgeSeconds)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epochAges = append(s.epochAges, time.Duration(age*float64(time.Second)))
	s.pendingMax = max(s.pendingMax, doc.CrossPending)
	if doc.Replica != nil {
		s.lagMax = max(s.lagMax, int64(doc.JournalSeq)-int64(doc.Replica.ReplicatedSeq))
	}
}

// tracedRun is the per-layer run: the script once against the real daemon
// for the counters and tails only it can show, then in-process at each
// layer's entry point for the spans. It writes the spans to tracePath.
func (e *env) tracedRun(w script.Workload, seed int64, seconds int, tracePath string) (*outcome, error) {
	plane, err := script.NewPlane(w)
	if err != nil {
		return nil, err
	}
	sc := plane.Generate(seed, w.Ops(seconds))
	o := newOutcome()
	for _, m := range perLayer {
		o.set(m.name, m.unit, 0, 0)
	}

	watch := &statsWatch{}
	m, err := e.runScript(w, sc, false, watch.observe, o)
	if err != nil {
		return nil, err
	}
	r := &m.res
	set := func(name string, v float64, n int) {
		known, ok := o.Metrics[name]
		if !ok {
			panic("drbench: per-layer metric " + name + " is not in the perLayer table")
		}
		o.set(name, known.Unit, v, n)
	}
	tail := func(name string, q float64, kinds ...script.Kind) {
		var d []time.Duration
		for _, k := range kinds {
			d = append(d, r.Samples[k]...)
		}
		set(name, ms(load.Quantile(d, q)), len(d))
	}
	tail("http.establish_p99_ms", 0.99, script.Establish)
	tail("http.terminate_p50_ms", 0.5, script.Terminate)
	tail("http.terminate_p99_ms", 0.99, script.Terminate)
	tail("http.read_p99_ms", 0.99, script.ReadStats, script.ReadPoint)
	tail("http.read_stats_p50_ms", 0.5, script.ReadStats)
	tail("http.read_point_p50_ms", 0.5, script.ReadPoint)
	tail("http.fault_p50_ms", 0.5, script.Fail, script.Repair)
	nEst := len(r.Samples[script.Establish])
	set("http.req_bytes_per_establish", float64(r.SentBytes[script.Establish])/float64(max(nEst, 1)), nEst)
	set("http.resp_bytes_per_establish", float64(r.RecvBytes[script.Establish])/float64(max(nEst, 1)), nEst)
	_, cpuMs := m.perStep(w)
	set("process.cpu_ms_per_op", cpuMs, r.Attempted)
	set("machine.speed_factor", m.speed, len(m.steps))
	set("script.respent_slots", float64(r.Respent), r.Attempted)
	set("script.gone", float64(r.Gone), r.Attempted)

	before, after := m.before.shards(), m.after.shards()
	var publishes, sheds, batches, appends int64
	var waitConsuming, waitFreeing float64
	for i := range after {
		publishes += after[i].Epoch.Publishes - before[i].Epoch.Publishes
		sheds += after[i].ShedExpired + after[i].ShedCanceled - before[i].ShedExpired - before[i].ShedCanceled
		batches += after[i].FsyncBatches - before[i].FsyncBatches
		appends += after[i].BatchedAppends - before[i].BatchedAppends
		waitConsuming = max(waitConsuming, after[i].Lanes["consuming"].DelayP50Sec*1000)
		waitFreeing = max(waitFreeing, after[i].Lanes["freeing"].DelayP50Sec*1000)
	}
	set("server.queue_wait_ms_p50.consuming", waitConsuming, r.Attempted)
	set("server.queue_wait_ms_p50.freeing", waitFreeing, r.Attempted)
	set("server.epoch_publishes", float64(publishes), r.Attempted)
	set("server.epoch_age_ms", ms(load.Quantile(watch.epochAges, 0.5)), len(watch.epochAges))
	set("server.shed_total", float64(sheds), r.Attempted)
	set("overload.episodes", float64(m.after.plane().OverloadEpisodes), r.Attempted)
	if batches > 0 {
		set("journal.appends_per_fsync", float64(appends)/float64(batches), int(batches))
	}
	set("shard.cross_attempts", float64(m.after.CrossAttempts-m.before.CrossAttempts), r.Attempted)
	set("shard.cross_aborted", float64(m.after.CrossAborted-m.before.CrossAborted), r.Attempted)
	set("shard.cross_timeouts", float64(m.after.CrossTimeouts-m.before.CrossTimeouts), r.Attempted)
	set("shard.pending_resolutions_max", float64(watch.pendingMax), len(watch.epochAges))
	if w.Replica {
		// Every journaled daemon reports a replication block; only a paired
		// one has a standby whose lag means anything.
		set("replica.lag_seq_max", float64(watch.lagMax), len(watch.epochAges))
		if m.after.Replica != nil && m.after.Replica.LeaseLost {
			set("replica.lease_lost", 1, 1)
		}
	}

	work, err := os.MkdirTemp(e.workDir, w.Name+"-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rec := spans.NewRecorder()
	lr, err := layers.Replay(plane, sc, min(w.Ops(replaySeconds), w.Ops(seconds)), rec, work)
	if err != nil {
		return nil, err
	}
	for name, v := range lr.Values {
		set(name, v, lr.Counts[name])
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := rec.WriteFile(tracePath); err != nil {
		return nil, err
	}
	return o, nil
}

// shards returns the per-plane stats: each shard's, or the single plane's.
func (d *statsDoc) shards() []planeStats {
	if d.Aggregate != nil {
		return d.PerShard
	}
	return []planeStats{d.planeStats}
}
