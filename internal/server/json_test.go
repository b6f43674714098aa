package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"drqos/internal/estimator"
	"drqos/internal/forecast"
	"drqos/internal/server"
	"drqos/internal/shard"
)

// awkward is an error text with everything a string scanner can trip on:
// escaped quotes and backslashes, HTML characters encoding/json escapes,
// non-ASCII text, a line separator and brackets, commas and colons that are
// not structure.
const awkward = "link \"7\" \\ down <a&b> Δ 帯域 \u2028 [{,:}] \\\""

// fullStats is a /v1/stats answer with every block populated: lanes, epoch,
// forecast and replica.
func fullStats() server.Stats {
	return server.Stats{
		Nodes: 100, Links: 354, CapacityKbps: 10000,
		Alive: 2000, Unprotected: 13, AvgBandwidthKbps: 312.5,
		LevelHistogram: []int{400, 0, 311, 290, 250, 201, 180, 170, 198},
		Requests:       123456, Rejects: 789, RejectRate: 789.0 / 123456,
		FailedLinks: []int{3, 17, 202},
		Degraded:    true, DegradedReason: awkward, InvariantViolations: 1,
		Overloaded: true, OverloadEpisodes: 2, ShedExpired: 5, ShedCanceled: 6,
		Lanes: map[string]server.LaneStats{
			"freeing":   {Depth: 1, DelayCount: 9000, DelayP50Sec: 1.2e-5, DelayP90Sec: 3e-5, DelayP99Sec: 0.0004, DelayMaxSec: 0.01, DelayMeanSec: 2e-5},
			"consuming": {Depth: 4, DelayCount: 12000, DelayP50Sec: 2.5e-5, DelayP90Sec: 9e-5, DelayP99Sec: 0.0011, DelayMaxSec: 0.2, DelayMeanSec: 4e-5},
		},
		Journaled: true, JournalSeq: 98765, JournalSnapshot: 98304, JournalErrors: 1,
		Recovering: false, Recoveries: 1, RecoveryFailures: 1, LastRecoveryError: awkward,
		GroupCommit: true, JournalSynced: 98764, FsyncBatches: 80000, BatchedAppends: 98764,
		Epoch:      &server.EpochStats{Seq: 4242, AgeSeconds: 0.00123, Publishes: 4242, Frozen: true},
		Commands:   server.CommandStats{Processed: 200000, Establishes: 123456, Terminates: 70000, Failures: 300, Repairs: 290, Snapshots: 12},
		QueueDepth: 5,
		Forecast: &server.ForecastStats{
			Available: true, Stale: true, PredictedOverload: true, Seq: 77, Solves: 78, SolveErrors: 1,
			LastError: awkward, AgeSeconds: 0.4, SolveDurationSeconds: 0.02, MeanBandwidthKbps: 311.9, Saturated: true,
			Model: estimator.Model{
				Window: 12.5, Accepted: 1506, Terminated: 753, Failed: 6, Ignored: 4,
				Lambda: 120.5, Mu: 60.25, Gamma: 0.5, Delta: 0.49, Pf: 0.01, Ps: 0.2, PfFail: 0.003,
				DiscardedA: 1, DiscardedB: 2, DiscardedT: 3, AvgAlive: 1999.5,
				BirthDist: []float64{0, 0.1, 0.2, 0, 0, 0, 0, 0.3, 0.4},
			},
		},
		Replica: &server.ReplicaStats{
			Role: "primary", Term: 3, Promotions: 2, PrimaryURL: "http://127.0.0.1:18084/?a=1&b=<2>",
			AppliedSeq: 98000, LastVerifiedSeq: 97984, LagSeq: 764, LagSeconds: 0.05, Diverged: true,
			Followers: 1, ReplicatedSeq: 98760, LeaseEnabled: true, LeaseLost: true,
			AckWaitMsP50: 1.4, AckWaitMsP99: 2.9,
		},
	}
}

// shardStats is a 4-shard GET /v1/stats answer shaped like the sharded
// daemon's: per-shard Stats without the forecast and replica blocks.
func shardStats() server.ShardedStats {
	per := fullStats()
	per.Forecast, per.Replica, per.Degraded, per.DegradedReason = nil, nil, false, ""
	resp := server.ShardedStats{
		Shards: 4, Aggregate: per,
		CrossAttempts: 3000, CrossCommitted: 2500, CrossAborted: 500, CrossActive: 90,
		CrossTimeouts: 2, CrossPending: 1,
		CrossAbortReasons: map[string]int64{"rejected": 480, "timeout": 2, "overloaded": 18},
	}
	for i := 0; i < 4; i++ {
		resp.PerShard = append(resp.PerShard, per)
	}
	return resp
}

// apiAnswers is every type the API answers with, populated.
func apiAnswers() map[string]any {
	pi := []float64{0.1, 0.2, 0.3, 0.25, 0.15}
	fc := &forecast.Forecast{
		Seq: 9, SolvedAt: time.Date(2026, 10, 15, 12, 0, 0, 123456789, time.UTC), SolveDurationSeconds: 0.01,
		States: 5, MinKbps: 100, MaxKbps: 500, IncrementKbps: 100, Pi: pi, MeanBandwidthKbps: 290,
		Model: estimator.Model{
			Window: 60, Accepted: 10, Terminated: 3, Lambda: 1, Mu: 2, Gamma: 3, Delta: 4, Pf: 0.5, Ps: 0.25, PfFail: 0.125,
			AvgAlive: 10, BirthDist: []float64{1, 0, 0, 0, 0},
		},
		AvgHops: 3.5, Rejected: 2,
		Headroom: 0.45, Saturated: true, Stale: true, LastError: awkward, Solves: 9, SolveErrors: 1,
	}
	cross, first := -1, 0
	return map[string]any{
		"establish":        server.EstablishResponse{ID: 42, Level: 8, BandwidthKbps: 500, HasBackup: true, PrimaryHops: 4, DirectlyChained: 3, IndirectlyChained: 7, LevelChanges: 11},
		"terminate":        server.TerminateResponse{ID: 42, Affected: 9, LevelChanges: 9},
		"fault fail":       server.FaultResponse{Link: 7, Action: "fail", Activated: []int64{1, 2}, Dropped: []int64{3}, Recovered: []int64{4}, BackupsLost: []int64{5, 6}, Squeezed: 8},
		"fault repair":     server.FaultResponse{Link: 7, Action: "repair", Reprotected: 3},
		"error":            server.ErrorBody{Error: awkward},
		"error rejected":   server.ErrorBody{Error: "manager: connection rejected", Rejected: true},
		"error shed":       server.ErrorBody{Error: "server: overloaded", RetryAfterSeconds: 2},
		"conn status":      &server.ConnStatus{ID: 42, Alive: true, Level: 2, BandwidthKbps: 200, HasBackup: true},
		"stats":            fullStats(),
		"stats zero":       server.Stats{},
		"forecast":         server.ForecastEnvelope{Available: true, AgeSeconds: 0.5, PredictedOverload: true, Forecast: fc},
		"forecast waiting": server.ForecastEnvelope{Reason: "not ready: " + awkward},
		"what-if": &forecast.WhatIfResponse{
			Count: 5, MinKbps: 100, MaxKbps: 500, IncrementKbps: 50, BaseMeanKbps: 300, MeanKbps: 290, DeltaMeanKbps: -10,
			Pi: pi, AliveBefore: 10, AliveAfter: 15, PfBefore: 0.1, PfAfter: 0.2, IdealMeanKbps: 333.3,
			Headroom: 0.4, Saturated: true, Admit: true, Reason: awkward, Stale: true,
			DeltaTuning: &forecast.DeltaRecommendation{
				Candidates:      []forecast.DeltaCandidate{{IncrementKbps: 100, States: 5, MeanKbps: 280, QuantLossKbps: 10, ChurnPerSec: 0.5}, {IncrementKbps: 200, States: 3}},
				RecommendedKbps: 100, Rationale: awkward,
			},
		},
		"shard establish":       server.EstablishResponse{ID: 255 | 7<<8, BandwidthKbps: 100, PrimaryHops: 9, Cross: true, Shard: &cross},
		"shard establish intra": server.EstablishResponse{ID: 3 << 8, Level: 4, BandwidthKbps: 300, HasBackup: true, PrimaryHops: 2, DirectlyChained: 5, LevelChanges: 6, Shard: &first},
		"shard terminate":       server.TerminateResponse{ID: 1025, Affected: 3, LevelChanges: 2},
		"shard shards":          shard.ShardsResponse{Shards: 4, Regions: 4, NodeShard: []int{0, 0, 1, 2, 3, 3, 1}},
		"shard stats":           shardStats(),
		"invariants": map[string]any{"ok": true, "degraded": false, "degraded_reason": "", "journal_seq": uint64(98765),
			"fingerprint": "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"},
		"invariants dirty": map[string]any{"ok": false, "degraded": true, "degraded_reason": awkward, "journal_seq": uint64(0), "error": awkward},
		"shard invariants": map[string]any{"ok": false, "shards": []map[string]any{
			{"ok": true, "degraded": false}, {"ok": false, "degraded": true, "error": awkward, "degraded_reason": awkward},
		}},
		"readyz": map[string]any{"ready": false, "degraded": true, "recovering": false, "overloaded": true,
			"role": "primary", "lease_lost": true, "degraded_reason": awkward},
		"healthz":        map[string]any{"ok": true},
		"promoted":       map[string]any{"promoted": true, "term": uint64(4), "role": "primary"},
		"empty nesting":  map[string]any{"a": []any{}, "b": map[string]any{}, "c": []any{[]any{}, map[string]any{"d": []int{}}}},
		"top-level null": nil,
		"top-level text": awkward,
		"top-level num":  12.5,
	}
}

// TestWriteJSONMatchesMarshalIndent: every answer type leaves as the bytes of
// json.MarshalIndent(v, "", "  ") plus a newline — what the API sent before
// WriteJSON stopped indenting through encoding/json — with a Content-Length
// that matches.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	for name, v := range apiAnswers() {
		t.Run(name, func(t *testing.T) {
			want, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			rec := httptest.NewRecorder()
			server.WriteJSON(rec, http.StatusCreated, v)
			if rec.Code != http.StatusCreated {
				t.Errorf("status %d, want %d", rec.Code, http.StatusCreated)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("body differs from MarshalIndent\n got: %q\nwant: %q", got, want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Errorf("Content-Length %q, want %d", cl, len(want))
			}
			rendered, err := server.RenderJSON(v)
			if err != nil || !bytes.Equal(rendered, want) {
				t.Errorf("RenderJSON = %q, %v; want the same bytes", rendered, err)
			}
		})
	}
}

// TestWriteJSONMarshalError: a value encoding/json refuses still gets its
// status, with an empty body.
func TestWriteJSONMarshalError(t *testing.T) {
	rec := httptest.NewRecorder()
	server.WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get("Content-Length") != "0" {
		t.Fatalf("status %d, body %q, Content-Length %q; want 200 and no body",
			rec.Code, rec.Body.Bytes(), rec.Header().Get("Content-Length"))
	}
}

// FuzzWriteJSON holds the re-indenter to encoding/json's own: for any valid
// JSON, indenting its compact form gives json.Indent's bytes.
func FuzzWriteJSON(f *testing.F) {
	for _, seed := range []string{
		`{"a":"q\"uote","b":"back\\slash","c":"\\\"","d":"\\"}`,
		`"<script>&amp;</script>"`,
		`{"<":" ","ключ":"値 Δ 🙂"}`,
		`[[],{},[{}],{"a":[]},[[[]]],{"b":{"c":{}}}]`,
		`{ "spaced" : [ 1 , 2 ] , "t" : true }`,
		`42`, `-1.5e-7`, `"top"`, `null`, `true`,
		`{"a":{"b":{"c":[1,2,{"d":false,"e":null}]}},"f":"[{,:}]"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if !json.Valid(src) {
			t.Skip()
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, src); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := server.AppendIndented(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndented(%q)\n got: %q\nwant: %q", compact.Bytes(), got, want.Bytes())
		}
	})
}

// discard is a ResponseWriter that keeps nothing but its header map, so a
// benchmark times WriteJSON and not a recorder.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}

// BenchmarkWriteJSON times one answer: the establish answer every mutation
// gets, one server's /v1/stats, and the 4-shard /v1/stats (6–8 KB indented).
func BenchmarkWriteJSON(b *testing.B) {
	cases := []struct {
		name string
		v    any
	}{
		{"EstablishResponse", server.EstablishResponse{ID: 42, Level: 8, BandwidthKbps: 500, HasBackup: true, PrimaryHops: 4, DirectlyChained: 3, IndirectlyChained: 7, LevelChanges: 11}},
		{"Stats", fullStats()},
		{"ShardStats", shardStats()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w := discard{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				server.WriteJSON(w, http.StatusOK, c.v)
			}
		})
	}
}
