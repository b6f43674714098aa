// HTTP/JSON front end for the sharded deployment: server.NewHandler's
// routes, served through plane — the coordinator's answers to the calls
// server.Plane names — plus GET /v1/shards describing the partition. What
// differs from one server is stated here once: connection IDs in the
// external encoding (low byte = shard index, 255 = cross-shard
// transaction), establish answers that name their shard, the
// aggregate/per_shard envelope of /v1/stats, and invariants and readiness
// composed of each shard's own answer. There is no shedding at the front
// end: a latched shard refuses its own capacity-consuming work while the
// others keep serving. The point read, recovery and the forecast answer 501.
package shard

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"time"

	"drqos/internal/channel"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// ShardsResponse describes the partition for shard-aware clients, which
// use it to pick intra- or cross-shard pairs.
type ShardsResponse struct {
	Shards    int   `json:"shards"`
	Regions   int   `json:"regions"`
	NodeShard []int `json:"node_shard"`
}

// NewHandler returns the sharded HTTP/JSON API over c.
func NewHandler(c *Coordinator, opts ...server.HandlerOption) http.Handler {
	mux := server.NewHandler(plane{c}, opts...)
	// The plan never changes, so its answer is rendered once. Integers and
	// a slice of them always marshal: there is no error to handle.
	shards, _ := server.RenderJSON(ShardsResponse{
		Shards:    c.plan.Shards,
		Regions:   c.plan.Regions,
		NodeShard: c.plan.NodeShard,
	})
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSONBytes(w, http.StatusOK, shards)
	})
	return mux
}

// plane is the coordinator as a server.Plane. FailLink and RepairLink are
// the coordinator's own.
type plane struct{ *Coordinator }

// shardNos holds -1 (cross-shard) and then every shard index, so an
// establish answer points at its shard without allocating.
var shardNos = func() (n [MaxShards + 1]int) {
	for i := range n {
		n[i] = i - 1
	}
	return n
}()

// Admit answers an intra-shard connection with its shard's report and a
// cross-shard one with the rigid allocation its 2PC pinned and the global
// hop count.
func (p plane) Admit(ctx context.Context, src, dst topology.NodeID, spec qos.ElasticSpec) (server.EstablishResponse, error) {
	res, err := p.Establish(ctx, src, dst, spec)
	if err != nil {
		return server.EstablishResponse{}, err
	}
	a := server.EstablishResponse{BandwidthKbps: int64(res.AllocatedKbps), PrimaryHops: res.Hops, Cross: true}
	if !res.Cross {
		a = server.EstablishAnswer(res.Report)
	}
	a.ID, a.Shard = res.ID, &shardNos[res.Shard+1]
	return a, nil
}

// Terminate answers with the terminated connection's report: its shard's,
// or its parts' merged.
func (p plane) Terminate(ctx context.Context, id channel.ConnID) (*manager.TerminationReport, error) {
	return p.terminate(ctx, int64(id), &manager.TerminationReport{})
}

// StatsAnswer aggregates every shard's epoch-view Stats. Counters and
// populations sum; boolean flags OR; the level histogram merges
// element-wise. Journal positions, epochs and lanes are per-shard detail
// and stay in PerShard only.
func (p plane) StatsAnswer() any {
	c := p.Coordinator
	resp := server.ShardedStats{Shards: len(c.shards)}
	agg := server.Stats{
		Nodes: c.g.NumNodes(),
		Links: c.g.NumLinks(),
	}
	var bwWeighted float64
	for i, s := range c.shards {
		st := s.StatsView()
		resp.PerShard = append(resp.PerShard, st)
		agg.FailedLinks = c.failedLinks(agg.FailedLinks, i, st.FailedLinks)
		agg.CapacityKbps = st.CapacityKbps
		agg.Alive += st.Alive
		agg.Unprotected += st.Unprotected
		bwWeighted += st.AvgBandwidthKbps * float64(st.Alive)
		for len(agg.LevelHistogram) < len(st.LevelHistogram) {
			agg.LevelHistogram = append(agg.LevelHistogram, 0)
		}
		for i, n := range st.LevelHistogram {
			agg.LevelHistogram[i] += n
		}
		agg.Requests += st.Requests
		agg.Rejects += st.Rejects
		if st.Degraded {
			agg.Degraded = true
		}
		if st.Overloaded {
			agg.Overloaded = true
		}
		if st.Recovering {
			agg.Recovering = true
		}
		agg.InvariantViolations += st.InvariantViolations
		agg.OverloadEpisodes += st.OverloadEpisodes
		agg.ShedExpired += st.ShedExpired
		agg.ShedCanceled += st.ShedCanceled
		agg.Journaled = agg.Journaled || st.Journaled
		agg.JournalErrors += st.JournalErrors
		agg.GroupCommit = agg.GroupCommit || st.GroupCommit
		agg.FsyncBatches += st.FsyncBatches
		agg.BatchedAppends += st.BatchedAppends
		agg.Recoveries += st.Recoveries
		agg.RecoveryFailures += st.RecoveryFailures
		agg.QueueDepth += st.QueueDepth
		agg.Commands.Processed += st.Commands.Processed
		agg.Commands.Establishes += st.Commands.Establishes
		agg.Commands.Terminates += st.Commands.Terminates
		agg.Commands.Failures += st.Commands.Failures
		agg.Commands.Repairs += st.Commands.Repairs
		agg.Commands.Snapshots += st.Commands.Snapshots
		agg.FailureOutcomes.Victims += st.FailureOutcomes.Victims
		agg.FailureOutcomes.Activated += st.FailureOutcomes.Activated
		agg.FailureOutcomes.Dropped += st.FailureOutcomes.Dropped
		agg.FailureOutcomes.Recovered += st.FailureOutcomes.Recovered
		agg.FailureOutcomes.BackupsLost += st.FailureOutcomes.BackupsLost
	}
	if agg.Alive > 0 {
		agg.AvgBandwidthKbps = bwWeighted / float64(agg.Alive)
	}
	if agg.Requests > 0 {
		agg.RejectRate = float64(agg.Rejects) / float64(agg.Requests)
	}
	c.mu.Lock()
	resp.CrossActive = len(c.cross)
	c.mu.Unlock()
	// Ascending, like the single plane's list: a shard's list is, but
	// shards own links in no global order.
	slices.Sort(agg.FailedLinks)
	resp.CrossAttempts, resp.CrossCommitted, resp.CrossAborted = c.crossAttempts.Load(), c.crossCommitted.Load(), c.crossAborted.Load()
	resp.CrossTimeouts = c.CrossTimeouts()
	resp.CrossPending = c.PendingResolutions()
	resp.CrossAbortReasons = c.AbortReasons()
	resp.Aggregate = agg
	return resp
}

// Invariants answers every shard's own audit, and fails as a shard that
// cannot audit fails.
func (p plane) Invariants(ctx context.Context) (map[string]any, error) {
	perShard := make([]map[string]any, len(p.shards))
	ok := true
	for i, s := range p.shards {
		body, err := s.Invariants(ctx)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		ok = ok && body["ok"] == true
		perShard[i] = body
	}
	return map[string]any{"ok": ok, "shards": perShard}, nil
}

// Readiness answers from every shard's own readiness: ready when all are,
// each flag when any shard raises it, the first degraded shard's reason,
// and the longest wait a shard asks for.
func (p plane) Readiness() (map[string]any, time.Duration) {
	perShard := make([]map[string]any, len(p.shards))
	body := map[string]any{"ready": true, "degraded": false, "recovering": false, "overloaded": false, "shards": perShard}
	var wait time.Duration
	for i, s := range p.shards {
		b, d := s.Readiness()
		perShard[i], wait = b, max(wait, d)
		if b["ready"] != true {
			body["ready"] = false
		}
		for _, flag := range []string{"degraded", "recovering", "overloaded"} {
			if b[flag] == true {
				body[flag] = true
			}
		}
		if reason, ok := b["degraded_reason"]; ok && body["degraded_reason"] == nil {
			body["degraded_reason"] = fmt.Sprintf("shard %d: %s", i, reason)
		}
	}
	return body, wait
}
