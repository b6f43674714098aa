// HTTP/JSON front end for the sharded deployment. Same endpoints and
// status mapping as the single-shard API (internal/server/http.go), with
// connection IDs in the external encoding (low byte = shard index, 255 =
// cross-shard transaction), an extra GET /v1/shards describing the
// partition, and /v1/stats and /metrics aggregated across shards.
package shard

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"drqos/internal/channel"
	"drqos/internal/manager"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// EstablishResponse summarizes an admitted connection at the coordinator
// level. Intra-shard connections carry the full report fields; cross-shard
// ones report the rigid allocation and the global hop count.
type EstablishResponse struct {
	ID            int64 `json:"id"`
	Cross         bool  `json:"cross"`
	Shard         int   `json:"shard"`
	BandwidthKbps int64 `json:"bandwidth_kbps"`
	Level         int   `json:"level"`
	HasBackup     bool  `json:"has_backup"`
	PrimaryHops   int   `json:"primary_hops"`
}

// TerminateResponse names the released connection.
type TerminateResponse struct {
	ID int64 `json:"id"`
}

// ShardsResponse describes the partition for shard-aware clients, which
// use it to pick intra- or cross-shard pairs.
type ShardsResponse struct {
	Shards    int   `json:"shards"`
	Regions   int   `json:"regions"`
	NodeShard []int `json:"node_shard"`
}

// StatsResponse is the aggregated service view plus each shard's own Stats.
type StatsResponse struct {
	Shards         int          `json:"shards"`
	Aggregate      server.Stats `json:"aggregate"`
	CrossAttempts  int64        `json:"cross_attempts"`
	CrossCommitted int64        `json:"cross_committed"`
	CrossAborted   int64        `json:"cross_aborted"`
	CrossActive    int          `json:"cross_active"`
	// CrossTimeouts counts 2PC phase calls that hit their deadline;
	// CrossPending counts decided transactions still awaiting a
	// participant's acknowledgment; CrossAbortReasons tallies aborts by
	// cause.
	CrossTimeouts     int64            `json:"cross_timeouts"`
	CrossPending      int              `json:"cross_pending"`
	CrossAbortReasons map[string]int64 `json:"cross_abort_reasons,omitempty"`
	PerShard          []server.Stats   `json:"per_shard"`
}

// NewHandler returns the sharded HTTP/JSON API over c. Endpoints mirror
// server.NewHandler; see the package comment for the differences.
func NewHandler(c *Coordinator, opts ...server.HandlerOption) http.Handler {
	f := server.NewFront(opts...)
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/connections", func(w http.ResponseWriter, r *http.Request) {
		if !f.AdmitClient(w, r) {
			return
		}
		var req server.EstablishRequest
		if !f.DecodeBody(w, r, &req) {
			return
		}
		res, err := c.Establish(r.Context(), topology.NodeID(req.Src), topology.NodeID(req.Dst), req.Spec())
		if err != nil {
			writeError(w, err)
			return
		}
		resp := EstablishResponse{
			ID: res.ID, Cross: res.Cross, Shard: res.Shard,
			BandwidthKbps: int64(res.AllocatedKbps),
		}
		if res.Report != nil && res.Report.Conn != nil {
			resp.Level = res.Report.Conn.Level
			resp.HasBackup = res.Report.Conn.HasBackup
			resp.PrimaryHops = res.Report.Conn.Primary.Hops()
		} else {
			resp.PrimaryHops = res.Hops
		}
		server.WriteJSON(w, http.StatusCreated, resp)
	})
	mux.HandleFunc("DELETE /v1/connections/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !f.AdmitClient(w, r) {
			return
		}
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			server.WriteJSON(w, http.StatusBadRequest, server.ErrorBody{Error: "bad connection id: " + err.Error()})
			return
		}
		if err := c.Terminate(r.Context(), id); err != nil {
			writeError(w, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, TerminateResponse{ID: id})
	})
	mux.HandleFunc("POST /v1/faults/link", func(w http.ResponseWriter, r *http.Request) {
		if !f.AdmitClient(w, r) {
			return
		}
		var req server.FaultRequest
		if !f.DecodeBody(w, r, &req) {
			return
		}
		switch req.Action {
		case "", "fail":
			rep, torn, err := c.failLink(r.Context(), topology.LinkID(req.Link))
			if err != nil {
				writeError(w, err)
				return
			}
			server.WriteJSON(w, http.StatusOK, c.failAnswer(req.Link, rep, torn))
		case "repair":
			restored, err := c.RepairLink(r.Context(), topology.LinkID(req.Link))
			if err != nil {
				writeError(w, err)
				return
			}
			server.WriteJSON(w, http.StatusOK, server.FaultResponse{
				Link: req.Link, Action: "repair", Reprotected: restored,
			})
		default:
			server.WriteJSON(w, http.StatusBadRequest, server.ErrorBody{Error: fmt.Sprintf("unknown action %q", req.Action)})
		}
	})
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
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, c.statsResponse())
	})
	mux.HandleFunc("GET /v1/invariants", func(w http.ResponseWriter, r *http.Request) {
		// Each entry is the single plane's answer for that shard: verdict,
		// fingerprint and journal position of one instant.
		perShard := make([]map[string]any, len(c.shards))
		allOK := true
		for i, s := range c.shards {
			seq, fingerprint, err := s.Audit(r.Context())
			degraded, reason := s.Degraded()
			entry := map[string]any{"ok": err == nil, "degraded": degraded, "journal_seq": seq}
			if err != nil {
				entry["error"] = err.Error()
				allOK = false
			} else {
				entry["fingerprint"] = fingerprint
			}
			if reason != "" {
				entry["degraded_reason"] = reason
			}
			perShard[i] = entry
		}
		code := http.StatusOK
		if !allOK {
			code = http.StatusInternalServerError
		}
		server.WriteJSON(w, code, map[string]any{"ok": allOK, "shards": perShard})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		resp := c.statsResponse()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		server.WriteMetrics(w, resp.Aggregate)
		gauge := func(name, help string, v any) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
		}
		counter := func(name, help string, v int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
		}
		gauge("drqos_shards", "Region shards in this deployment.", resp.Shards)
		gauge("drqos_cross_connections_active", "Committed cross-shard connections currently alive.", resp.CrossActive)
		counter("drqos_cross_establish_total", "Cross-shard two-phase establishes attempted.", resp.CrossAttempts)
		counter("drqos_cross_commit_total", "Cross-shard transactions committed.", resp.CrossCommitted)
		counter("drqos_cross_abort_total", "Cross-shard transactions aborted.", resp.CrossAborted)
		counter("drqos_2pc_timeouts_total", "Cross-shard 2PC phase calls that hit their deadline.", resp.CrossTimeouts)
		gauge("drqos_2pc_pending_resolutions", "Decided cross-shard transactions still awaiting a participant acknowledgment.", resp.CrossPending)
		fmt.Fprintf(w, "# HELP drqos_2pc_aborts_total Cross-shard transactions aborted, by reason.\n# TYPE drqos_2pc_aborts_total counter\n")
		for _, reason := range []string{"timeout", "unreachable", "rejected", "overloaded", "degraded", "error"} {
			fmt.Fprintf(w, "drqos_2pc_aborts_total{reason=%q} %d\n", reason, resp.CrossAbortReasons[reason])
		}
		fmt.Fprintf(w, "# HELP drqos_shard_connections_alive Alive connections per shard.\n# TYPE drqos_shard_connections_alive gauge\n")
		for i, st := range resp.PerShard {
			fmt.Fprintf(w, "drqos_shard_connections_alive{shard=\"%d\"} %d\n", i, st.Alive)
		}
		f.WriteMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		degraded, overloaded, recovering := false, false, false
		for _, s := range c.shards {
			if d, _ := s.Degraded(); d {
				degraded = true
			}
			if s.Overloaded() {
				overloaded = true
			}
			if rec, _, _, _ := s.RecoveryStatus(); rec {
				recovering = true
			}
		}
		body := map[string]any{
			"ready":      !degraded && !recovering && !overloaded,
			"degraded":   degraded,
			"recovering": recovering,
			"overloaded": overloaded,
		}
		if degraded || recovering || overloaded {
			w.Header().Set("Retry-After", "1")
			server.WriteJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		server.WriteJSON(w, http.StatusOK, body)
	})
	f.MountDebug(mux)
	return mux
}

// statsResponse aggregates every shard's epoch-view Stats. Counters and
// populations sum; boolean health flags OR; the level histogram merges
// element-wise. Lane delay digests are per-shard detail and stay in
// PerShard only.
func (c *Coordinator) statsResponse() StatsResponse {
	resp := StatsResponse{Shards: len(c.shards)}
	agg := server.Stats{
		Nodes: c.g.NumNodes(),
		Links: c.g.NumLinks(),
	}
	var bwWeighted float64
	for _, s := range c.shards {
		st := s.StatsView()
		resp.PerShard = append(resp.PerShard, st)
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
	for l := range c.failed {
		agg.FailedLinks = append(agg.FailedLinks, int(l))
	}
	resp.CrossActive = len(c.cross)
	c.mu.Unlock()
	// Ascending, like the single plane's list: map order would make two
	// reads of the same state differ.
	slices.Sort(agg.FailedLinks)
	resp.CrossAttempts, resp.CrossCommitted, resp.CrossAborted = c.CrossStats()
	resp.CrossTimeouts = c.CrossTimeouts()
	resp.CrossPending = c.PendingResolutions()
	resp.CrossAbortReasons = c.AbortReasons()
	resp.Aggregate = agg
	return resp
}

// failAnswer renders the owning shard's report of failing link in the
// external encoding. The pieces that shard held of the torn cross-shard
// connections name no connection a client holds (DELETE on one answers
// 404), so they are left out, and each torn connection is listed once in
// Dropped by its own ID: the coordinator tore it down end to end. An empty
// list renders as nil, so it is omitted as the single plane omits it.
func (c *Coordinator) failAnswer(link int, rep *manager.FailureReport, torn map[uint64]*crossConn) server.FaultResponse {
	owner := c.plan.LinkShard[link]
	pieces := make(map[channel.ConnID]bool)
	txns := make([]uint64, 0, len(torn))
	for txn, cc := range torn {
		txns = append(txns, txn)
		for _, p := range cc.parts {
			if p.shard == owner {
				pieces[p.conn] = true
			}
		}
	}
	slices.Sort(txns)
	ext := func(ids []channel.ConnID) []int64 {
		var out []int64
		for _, id := range ids {
			if !pieces[id] {
				out = append(out, extIntra(owner, id))
			}
		}
		return out
	}
	dropped := ext(rep.Dropped)
	for _, txn := range txns {
		dropped = append(dropped, extCross(txn))
	}
	return server.FaultResponse{
		Link: link, Action: "fail",
		Activated:   ext(rep.Activated),
		Dropped:     dropped,
		Recovered:   ext(rep.Recovered),
		BackupsLost: ext(rep.BackupsLost),
		Squeezed:    len(rep.Squeezed),
	}
}

// writeError adds the coordinator's own errors to the shared status
// mapping. ErrNoRoute — a cross-shard path does not exist — maps like a
// rejection: the request was well-formed, the network cannot carry it.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoRoute):
		server.WriteJSON(w, http.StatusConflict, server.ErrorBody{Error: err.Error(), Rejected: true})
	case errors.Is(err, ErrShardUnavailable):
		server.WriteShed(w, http.StatusServiceUnavailable, time.Second, err.Error())
	default:
		server.WriteError(w, err)
	}
}
