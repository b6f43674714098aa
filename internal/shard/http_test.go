package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"drqos/internal/core"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/overload"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// TestStatsFailedLinksAscending: the sharded /v1/stats lists failed links in
// ascending order, as the single plane does, so reads of one state answer
// the same aggregate bytes. (The per-shard blocks carry a live epoch age.)
func TestStatsFailedLinksAscending(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{Shards: 4})
	for _, l := range []topology.LinkID{40, 3, 21} {
		if _, err := c.FailLink(context.Background(), l); err != nil {
			t.Fatalf("fail link %d: %v", l, err)
		}
	}
	// A shard's loop answers a command before it counts it processed, and
	// the count is part of the aggregate: wait until all three are counted.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var n int64
		for i := 0; i < c.NumShards(); i++ {
			n += c.Shard(i).Processed()
		}
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards counted %d processed commands, want 3", n)
		}
	}
	h := shard.NewHandler(c)
	aggregate := func() []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/stats: %d %s", rec.Code, rec.Body.Bytes())
		}
		var body struct {
			Aggregate json.RawMessage `json:"aggregate"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return body.Aggregate
	}
	first := aggregate()
	var st struct {
		FailedLinks []int `json:"failed_links"`
	}
	if err := json.Unmarshal(first, &st); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 21, 40}; !slices.Equal(st.FailedLinks, want) {
		t.Fatalf("failed_links %v, want %v", st.FailedLinks, want)
	}
	for i := 0; i < 20; i++ {
		if again := aggregate(); !bytes.Equal(again, first) {
			t.Fatalf("read %d differs from the first:\n%s\nvs\n%s", i, again, first)
		}
	}
}

// TestShardsAnswer: GET /v1/shards, rendered once at start-up, answers the
// bytes WriteJSON would write for the plan.
func TestShardsAnswer(t *testing.T) {
	c := newCoordinator(t, tierGraph(t, 7), shard.Options{Shards: 4})
	p := c.Plan()
	want, err := json.MarshalIndent(shard.ShardsResponse{Shards: p.Shards, Regions: p.Regions, NodeShard: p.NodeShard}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	shard.NewHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/shards", nil))
	if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("GET /v1/shards: %d %q, want 200 %q", rec.Code, got, want)
	}
}

// TestInvariantsPerShardFingerprint: every per-shard entry of the sharded
// /v1/invariants carries that shard's fingerprint and journal position, as
// the single plane's answer does, so two reads are comparable across a
// restart. An establish inside shard 0 moves shard 0's pair and no other.
func TestInvariantsPerShardFingerprint(t *testing.T) {
	c := newCoordinator(t, tierGraph(t, 7), shard.Options{
		Shards: 4, Dir: t.TempDir(), Journal: journal.Options{FsyncEvery: 1},
	})
	h := shard.NewHandler(c)
	type entry struct {
		OK          bool   `json:"ok"`
		Fingerprint string `json:"fingerprint"`
		Seq         uint64 `json:"journal_seq"`
	}
	read := func() []entry {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/invariants", nil))
		var body struct {
			OK     bool    `json:"ok"`
			Shards []entry `json:"shards"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK || !body.OK {
			t.Fatalf("GET /v1/invariants: %d %s (%v)", rec.Code, rec.Body.Bytes(), err)
		}
		for i, e := range body.Shards {
			if !e.OK || e.Fingerprint == "" {
				t.Fatalf("shard %d entry %+v: want ok with a fingerprint", i, e)
			}
		}
		return body.Shards
	}
	before := read()
	if want := fingerprints(t, c); len(before) != len(want) {
		t.Fatalf("%d entries for %d shards", len(before), len(want))
	} else {
		for i := range want {
			if before[i].Fingerprint != want[i] {
				t.Errorf("shard %d: /v1/invariants says %s, StateFingerprint %s", i, before[i].Fingerprint, want[i])
			}
		}
	}

	var pair []topology.NodeID
	for n, s := range c.Plan().NodeShard {
		if s == 0 && len(pair) < 2 {
			pair = append(pair, topology.NodeID(n))
		}
	}
	res, err := c.Establish(context.Background(), pair[0], pair[1], qos.DefaultSpec())
	if err != nil || res.Cross || res.Shard != 0 {
		t.Fatalf("establish %v on shard 0: %+v, %v", pair, res, err)
	}
	after := read()
	for i := range after {
		moved := after[i] != before[i]
		if moved != (i == 0) {
			t.Errorf("shard %d: %+v -> %+v; only shard 0 should move", i, before[i], after[i])
		}
	}
	if after[0].Seq <= before[0].Seq {
		t.Errorf("shard 0 journal_seq %d -> %d, want it to advance", before[0].Seq, after[0].Seq)
	}
}

// TestCrossPiecesAreNotIntraConnections: a piece of a committed cross-shard
// connection has a (shard, local) pair, but that pair names no intra-shard
// connection: DELETE on it answers 404 and leaves the piece pinned, and the
// cross connection's own ID still frees every piece.
func TestCrossPiecesAreNotIntraConnections(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{Shards: 4})
	h := shard.NewHandler(c)
	ctx := context.Background()
	del := func(id int64) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", fmt.Sprintf("/v1/connections/%d", id), nil))
		return rec.Code
	}

	empty := populations(t, c)
	src, dst := crossPair(g, c.Plan())
	res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 511 {
		t.Fatalf("first cross connection has ID %d, want 511 (txn 1)", res.ID)
	}
	var pieces []int64
	for i := 0; i < c.NumShards(); i++ {
		txns, err := c.Shard(i).Txns(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range txns {
			for _, cn := range tx.Conns {
				if tx.Txn == 1 && cn.Alive {
					pieces = append(pieces, int64(cn.ID)*256+int64(i))
				}
			}
		}
	}
	if len(pieces) < 2 {
		t.Fatalf("cross connection pinned %v, want pieces on >= 2 shards", pieces)
	}
	pinned := populations(t, c)
	for _, id := range pieces {
		if code := del(id); code != http.StatusNotFound {
			t.Errorf("DELETE piece %d of 511: %d, want 404", id, code)
		}
	}
	if after := populations(t, c); !reflect.DeepEqual(after, pinned) {
		t.Fatalf("DELETE on pieces released state: %+v, want %+v", after, pinned)
	}
	if code := del(res.ID); code != http.StatusOK {
		t.Fatalf("DELETE %d: %d, want 200", res.ID, code)
	}
	if after := populations(t, c); !reflect.DeepEqual(after, empty) {
		t.Fatalf("DELETE %d left pieces pinned: %+v", res.ID, after)
	}
}

// TestFailAnswerNamesCrossConnections: failing a link under a committed
// cross-shard connection answers that connection's own ID in Dropped, once,
// and none of its pieces' (shard, local) IDs, which name no connection.
func TestFailAnswerNamesCrossConnections(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{Shards: 4})
	h := shard.NewHandler(c)
	ctx := context.Background()
	src, dst := crossPair(g, c.Plan())
	res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil || !res.Cross {
		t.Fatalf("establish %d -> %d: %+v, %v; want a cross-shard connection", src, dst, res, err)
	}
	var pieces []int64
	link := -1
	for i := 0; i < c.NumShards(); i++ {
		txns, err := c.Shard(i).Txns(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range txns {
			for _, cn := range tx.Conns {
				if cn.Alive {
					pieces = append(pieces, int64(cn.ID)*256+int64(i))
					if link < 0 {
						link = int(c.Plan().Subs[i].GlobalLink[cn.Links[0]])
					}
				}
			}
		}
	}
	if len(pieces) < 2 {
		t.Fatalf("cross connection pinned %v, want pieces on >= 2 shards", pieces)
	}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	rec := serve("POST", "/v1/faults/link", fmt.Sprintf(`{"link":%d}`, link))
	var fr server.FaultResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("fail link %d: %d %s (%v)", link, rec.Code, rec.Body.Bytes(), err)
	}
	if !slices.Equal(fr.Dropped, []int64{res.ID}) || fr.Activated != nil || fr.Recovered != nil || fr.BackupsLost != nil {
		t.Fatalf("fail link %d answered %+v; want dropped [%d] and nothing else (pieces %v)", link, fr, res.ID, pieces)
	}
	if code := serve("DELETE", fmt.Sprintf("/v1/connections/%d", res.ID), "").Code; code != http.StatusNotFound {
		t.Fatalf("DELETE %d after its link failed: %d, want 404", res.ID, code)
	}
}

// TestFailureOutcomesOverHTTP populates a plane over HTTP, fails links until
// the failures have activated, dropped and lost backups, and requires each
// failure to move /v1/stats' failure_outcomes (and /metrics'
// drqos_failure_outcomes_total) by exactly the lengths of the lists its
// FaultResponse carried — on the single plane and summed over 4 shards.
func TestFailureOutcomesOverHTTP(t *testing.T) {
	g := tierGraph(t, 7)
	cfg := manager.Config{Capacity: 10000}
	mgr, err := manager.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := server.NewFromManager(g, mgr, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Shutdown(context.Background()) })
	planes := []struct {
		name string
		h    http.Handler
	}{
		{"single", server.NewHandler(single)},
		{"shards=4", shard.NewHandler(newCoordinator(t, g, shard.Options{Shards: 4, Manager: cfg}))},
	}
	for _, p := range planes {
		t.Run(p.name, func(t *testing.T) {
			serve := func(method, path, body string) []byte {
				t.Helper()
				rec := httptest.NewRecorder()
				p.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader([]byte(body))))
				if rec.Code >= 500 {
					t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.Bytes())
				}
				return rec.Body.Bytes()
			}
			outcomes := func() server.FailureOutcomes {
				t.Helper()
				var body struct {
					server.Stats
					Aggregate *server.Stats `json:"aggregate"`
				}
				if err := json.Unmarshal(serve("GET", "/v1/stats", ""), &body); err != nil {
					t.Fatal(err)
				}
				if body.Aggregate != nil {
					return body.Aggregate.FailureOutcomes
				}
				return body.FailureOutcomes
			}
			src := rng.New(5)
			for i := 0; i < 400; i++ {
				a, z := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
				if a != z {
					serve("POST", "/v1/connections", fmt.Sprintf(`{"src":%d,"dst":%d}`, a, z))
				}
			}
			var total server.FailureOutcomes
			for l := 0; l < g.NumLinks() && (total.Activated == 0 || total.Dropped == 0 || total.BackupsLost == 0); l++ {
				before := outcomes()
				var fr server.FaultResponse
				if err := json.Unmarshal(serve("POST", "/v1/faults/link", fmt.Sprintf(`{"link":%d}`, l)), &fr); err != nil {
					t.Fatal(err)
				}
				after := outcomes()
				want := server.FailureOutcomes{
					Victims:     int64(len(fr.Activated) + len(fr.Dropped) + len(fr.Recovered)),
					Activated:   int64(len(fr.Activated)),
					Dropped:     int64(len(fr.Dropped)),
					Recovered:   int64(len(fr.Recovered)),
					BackupsLost: int64(len(fr.BackupsLost)),
				}
				got := server.FailureOutcomes{
					Victims:     after.Victims - before.Victims,
					Activated:   after.Activated - before.Activated,
					Dropped:     after.Dropped - before.Dropped,
					Recovered:   after.Recovered - before.Recovered,
					BackupsLost: after.BackupsLost - before.BackupsLost,
				}
				if got != want {
					t.Fatalf("failing link %d moved the counters by %+v, its answer listed %+v", l, got, want)
				}
				total = after
			}
			if total.Activated == 0 || total.Dropped == 0 || total.BackupsLost == 0 {
				t.Fatalf("every link failed and still %+v: the fixture no longer exercises each outcome", total)
			}
			metrics := string(serve("GET", "/metrics", ""))
			for outcome, n := range map[string]int64{"victims": total.Victims, "activated": total.Activated, "dropped": total.Dropped, "backups_lost": total.BackupsLost} {
				if line := fmt.Sprintf("drqos_failure_outcomes_total{outcome=%q} %d\n", outcome, n); !strings.Contains(metrics, line) {
					t.Errorf("/metrics lacks %q", line)
				}
			}
		})
	}
}

// TestEveryRouteEveryPlane serves every route of the API on one server and
// on a 4-shard front end, through the one handler set, and holds each
// answer to its status, a JSON Content-Type and its exact key set: the
// same answer on both planes except where the planes differ on purpose —
// establish answers that name their shard, the stats envelope, invariants
// and readiness composed of each shard's own answer, and 501 for the routes
// only one server serves. Then the refusals every mutation shares (400,
// 413, 429), readiness of a degraded plane (503 with the detector's
// Retry-After and the reason) and the audit of a closed one (503).
func TestEveryRouteEveryPlane(t *testing.T) {
	g := tierGraph(t, 7)
	// A 2 s detector interval makes the readiness hint 2 s, so a Retry-After
	// of 2 can only come from the servers' own hint.
	opt := server.Options{Overload: overload.DetectorConfig{Interval: 2 * time.Second}}
	cfg := manager.Config{Capacity: 10000}
	mgr, err := manager.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := server.NewFromManager(g, mgr, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Shutdown(context.Background()) })
	c := newCoordinator(t, g, shard.Options{Shards: 4, Manager: cfg, Server: opt})
	src, dst := crossPair(g, c.Plan())
	var owned []topology.NodeID
	for n, s := range c.Plan().NodeShard {
		if s == 0 {
			owned = append(owned, topology.NodeID(n))
		}
	}

	keys := func(s string) []string { return strings.Fields(s) }
	establish := keys("id level bandwidth_kbps has_backup primary_hops directly_chained indirectly_chained level_changes")
	readyz := keys("ready degraded recovering overloaded")
	fault := keys("link action squeezed reprotected")
	oops := keys("error")
	planes := []struct {
		name    string
		h       http.Handler
		limited http.Handler
		servers []*server.Server
		// The answers the planes give differently.
		intra, cross                          []string
		point, stats, ready, invariant, dirty []string
		// The statuses of the routes one server serves: 501 elsewhere.
		pointed, forecast, recovered int
	}{
		{
			name: "single", h: server.NewHandler(single), limited: server.NewHandler(single, server.WithRateLimit(1, 1)),
			servers: []*server.Server{single},
			intra:   establish, cross: establish,
			point: keys("id alive level bandwidth_kbps has_backup"), stats: nil,
			ready: append(keys("role"), readyz...), invariant: keys("ok degraded degraded_reason journal_seq fingerprint"),
			dirty: keys("ok degraded degraded_reason journal_seq error"),
			// No forecaster runs, and there is no journal to recover from.
			pointed: http.StatusOK, forecast: http.StatusNotFound, recovered: http.StatusConflict,
		},
		{
			name: "shards=4", h: shard.NewHandler(c), limited: shard.NewHandler(c, server.WithRateLimit(1, 1)),
			servers: []*server.Server{c.Shard(0), c.Shard(1), c.Shard(2), c.Shard(3)},
			intra:   append(keys("shard"), establish...), cross: append(keys("cross shard"), establish...),
			point: oops, stats: keys("shards aggregate cross_attempts cross_committed cross_aborted cross_active cross_timeouts cross_pending per_shard"),
			ready: append(keys("shards"), readyz...), invariant: keys("ok shards"), dirty: keys("ok shards"),
			pointed: http.StatusNotImplemented, forecast: http.StatusNotImplemented, recovered: http.StatusNotImplemented,
		},
	}
	for _, p := range planes {
		t.Run(p.name, func(t *testing.T) {
			serve := func(h http.Handler, method, path, body string, code int, want []string) map[string]json.RawMessage {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
				if rec.Code != code {
					t.Fatalf("%s %s: %d %s, want %d", method, path, rec.Code, rec.Body.Bytes(), code)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%s %s: Content-Type %q, want JSON: %s", method, path, ct, rec.Body.Bytes())
				}
				var answer map[string]json.RawMessage
				if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil {
					t.Fatalf("%s %s: %v: %s", method, path, err, rec.Body.Bytes())
				}
				if want != nil {
					got := make([]string, 0, len(answer))
					for k := range answer {
						got = append(got, k)
					}
					want = slices.Clone(want)
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Errorf("%s %s answered keys %v, want %v", method, path, got, want)
					}
				}
				return answer
			}
			id := func(answer map[string]json.RawMessage) string { return string(answer["id"]) }

			in := serve(p.h, "POST", "/v1/connections", fmt.Sprintf(`{"src":%d,"dst":%d}`, owned[0], owned[1]), http.StatusCreated, p.intra)
			out := serve(p.h, "POST", "/v1/connections", fmt.Sprintf(`{"src":%d,"dst":%d}`, src, dst), http.StatusCreated, p.cross)
			if p.stats != nil && (string(in["shard"]) != "0" || string(out["shard"]) != "-1" || string(out["cross"]) != "true") {
				t.Errorf("sharded establish answers name shard %s and %s (cross %s), want 0 and -1 (true)", in["shard"], out["shard"], out["cross"])
			}
			serve(p.h, "GET", "/v1/connections/"+id(in), "", p.pointed, p.point)
			serve(p.h, "DELETE", "/v1/connections/"+id(out), "", http.StatusOK, keys("id affected level_changes"))
			serve(p.h, "DELETE", "/v1/connections/"+id(out), "", http.StatusNotFound, oops)
			// Which connection lists a failure names depends on the population.
			failed := serve(p.h, "POST", "/v1/faults/link", `{"link":3}`, http.StatusOK, nil)
			for _, k := range fault {
				if failed[k] == nil {
					t.Errorf("fail-link answer lacks %q", k)
				}
			}
			serve(p.h, "POST", "/v1/faults/link", `{"link":3,"action":"repair"}`, http.StatusOK, fault)
			serve(p.h, "POST", "/v1/faults/link", `{"link":3,"action":"mend"}`, http.StatusBadRequest, oops)
			serve(p.h, "GET", "/v1/forecast", "", p.forecast, oops)
			serve(p.h, "POST", "/v1/forecast/whatif", `{"count":1}`, p.forecast, oops)
			serve(p.h, "POST", "/v1/admin/recover", "", p.recovered, oops)
			serve(p.h, "GET", "/v1/stats", "", http.StatusOK, p.stats)
			serve(p.h, "GET", "/v1/invariants", "", http.StatusOK, p.invariant)
			serve(p.h, "GET", "/healthz", "", http.StatusOK, keys("ok"))
			serve(p.h, "GET", "/readyz", "", http.StatusOK, p.ready)
			rec := httptest.NewRecorder()
			p.h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
				t.Errorf("GET /metrics: %d %q", rec.Code, rec.Header().Get("Content-Type"))
			}

			// What every mutation refuses alike.
			for _, path := range []string{"GET /v1/connections/x", "DELETE /v1/connections/x", "POST /v1/connections", "POST /v1/faults/link"} {
				method, path, _ := strings.Cut(path, " ")
				serve(p.h, method, path, "{", http.StatusBadRequest, oops)
			}
			serve(p.h, "POST", "/v1/connections", `{"pad":"`+strings.Repeat("x", 1<<20)+`"}`, http.StatusRequestEntityTooLarge, oops)
			serve(p.limited, "POST", "/v1/connections", "{", http.StatusBadRequest, oops)
			serve(p.limited, "POST", "/v1/connections", "{", http.StatusTooManyRequests, keys("error retry_after_seconds"))

			// A degraded plane is not ready, says why, and asks for the
			// detector's wait; a closed one cannot be audited.
			victim := p.servers[len(p.servers)-1]
			if err := victim.CorruptForTesting(context.Background()); err == nil {
				t.Fatal("corrupting the state passed its audit")
			}
			rec = httptest.NewRecorder()
			p.h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
			var ready struct {
				Degraded bool   `json:"degraded"`
				Reason   string `json:"degraded_reason"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil || rec.Code != http.StatusServiceUnavailable ||
				!ready.Degraded || ready.Reason == "" || rec.Header().Get("Retry-After") != "2" {
				t.Errorf("GET /readyz while degraded: %d, Retry-After %q, %s; want 503, 2 and the reason",
					rec.Code, rec.Header().Get("Retry-After"), rec.Body.Bytes())
			}
			serve(p.h, "GET", "/v1/invariants", "", http.StatusInternalServerError, p.dirty)
			if err := victim.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			serve(p.h, "GET", "/v1/invariants", "", http.StatusServiceUnavailable, oops)
		})
	}
}

// sink is a ResponseWriter that reuses one body buffer, so a benchmark times
// the handler and not a recorder.
type sink struct {
	h    http.Header
	code int
	body []byte
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(p []byte) (int, error) { s.body = append(s.body, p...); return len(p), nil }

// BenchmarkFrontEnd times the sharded front end's hot answers in process (no
// socket) on the shard-cross benchmark's plane: 4 shards of the tier
// topology (seed 1, 100 nodes) holding 300 connections. The establish case
// POSTs a pair, 30 % of them cross-shard, and terminates an admitted one on
// the coordinator directly, so the population stays at 300.
func BenchmarkFrontEnd(b *testing.B) {
	sys, err := core.NewSystem(core.Options{Seed: 1, Kind: core.TopologyTransitStub, Nodes: 100})
	if err != nil {
		b.Fatal(err)
	}
	c, err := shard.New(sys.Graph(), shard.Options{
		Shards:  4,
		Manager: manager.Config{Capacity: core.PaperCapacity, RequireBackup: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	defer c.Shutdown(ctx)
	h := shard.NewHandler(c)

	owned := make([][]topology.NodeID, c.NumShards())
	for n, s := range c.Plan().NodeShard {
		owned[s] = append(owned[s], topology.NodeID(n))
	}
	src := rng.New(1)
	pair := func() (a, z topology.NodeID) {
		s := src.Intn(len(owned))
		a = owned[s][src.Intn(len(owned[s]))]
		if src.Bernoulli(0.3) {
			s = (s + 1 + src.Intn(len(owned)-1)) % len(owned)
		}
		for z = a; z == a; {
			z = owned[s][src.Intn(len(owned[s]))]
		}
		return a, z
	}
	w := &sink{h: http.Header{}}
	establish := func() (id int64, ok bool) {
		a, z := pair()
		r := httptest.NewRequest("POST", "/v1/connections", bytes.NewReader(fmt.Appendf(nil, `{"src":%d,"dst":%d}`, a, z)))
		w.body = w.body[:0]
		h.ServeHTTP(w, r)
		if w.code != http.StatusCreated {
			return 0, false
		}
		var resp struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(w.body, &resp); err != nil {
			b.Fatal(err)
		}
		return resp.ID, true
	}
	for alive := 0; alive < 300; {
		if _, ok := establish(); ok {
			alive++
		}
	}

	get := func(path string) func(b *testing.B) {
		return func(b *testing.B) {
			r := httptest.NewRequest("GET", path, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.body = w.body[:0]
				h.ServeHTTP(w, r)
			}
		}
	}
	b.Run("stats", get("/v1/stats"))
	b.Run("shards", get("/v1/shards"))
	b.Run("establish", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if id, ok := establish(); ok {
				if err := c.Terminate(ctx, id); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestAggregateSumsEveryCounter walks server.Stats by reflection: on a
// journaled, group-committing 4-shard plane after churn, every integer
// field of the aggregate must equal the sum of per_shard's, and every
// boolean the OR — unless the field is named below as describing one plane
// only. Pointer, slice and map fields (epoch, forecast, replica, level
// histogram, lanes, failed links) are not walked.
func TestAggregateSumsEveryCounter(t *testing.T) {
	perPlane := map[string]string{
		"Nodes":           "the aggregate names the whole topology",
		"Links":           "the aggregate names the whole topology",
		"CapacityKbps":    "per-link capacity, the same on every shard",
		"JournalSeq":      "a position in one shard's journal",
		"JournalSnapshot": "a position in one shard's journal",
		"JournalSynced":   "a position in one shard's journal",
	}
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{
		Shards: 4, Dir: t.TempDir(), Journal: journal.Options{GroupCommit: true},
	})
	h := shard.NewHandler(c)
	serve := func(method, path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	src := rng.New(5)
	var ids []int64
	for i := 0; i < 60; i++ {
		var res server.EstablishResponse
		body := serve("POST", "/v1/connections", fmt.Sprintf(`{"src":%d,"dst":%d}`, src.Intn(g.NumNodes()), src.Intn(g.NumNodes())))
		if json.Unmarshal(body, &res) == nil && res.ID != 0 {
			ids = append(ids, res.ID)
		}
	}
	for _, id := range ids[:len(ids)/3] {
		serve("DELETE", fmt.Sprintf("/v1/connections/%d", id), "")
	}
	serve("POST", "/v1/faults/link", `{"link":3}`)
	serve("POST", "/v1/faults/link", `{"link":3,"action":"repair"}`)

	var resp server.ShardedStats
	if err := json.Unmarshal(serve("GET", "/v1/stats", ""), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.PerShard) != 4 {
		t.Fatalf("per_shard has %d blocks, want 4", len(resp.PerShard))
	}
	var walk func(path string, agg reflect.Value, shards []reflect.Value)
	walk = func(path string, agg reflect.Value, shards []reflect.Value) {
		for i := 0; i < agg.NumField(); i++ {
			f := agg.Type().Field(i)
			if perPlane[f.Name] != "" {
				continue
			}
			name := path + f.Name
			parts := make([]reflect.Value, len(shards))
			for s := range shards {
				parts[s] = shards[s].Field(i)
			}
			switch v := agg.Field(i); v.Kind() {
			case reflect.Struct:
				walk(name+".", v, parts)
			case reflect.Int, reflect.Int64:
				var sum int64
				for _, p := range parts {
					sum += p.Int()
				}
				if v.Int() != sum {
					t.Errorf("aggregate %s = %d, per_shard sums to %d", name, v.Int(), sum)
				}
			case reflect.Uint64:
				var sum uint64
				for _, p := range parts {
					sum += p.Uint()
				}
				if v.Uint() != sum {
					t.Errorf("aggregate %s = %d, per_shard sums to %d", name, v.Uint(), sum)
				}
			case reflect.Bool:
				or := false
				for _, p := range parts {
					or = or || p.Bool()
				}
				if v.Bool() != or {
					t.Errorf("aggregate %s = %v, per_shard ORs to %v", name, v.Bool(), or)
				}
			}
		}
	}
	shards := make([]reflect.Value, len(resp.PerShard))
	for i := range resp.PerShard {
		shards[i] = reflect.ValueOf(resp.PerShard[i])
	}
	walk("", reflect.ValueOf(resp.Aggregate), shards)
	if resp.Aggregate.FsyncBatches == 0 {
		t.Errorf("no fsync batches after %d establishes on group-committing shards", len(ids))
	}

	metrics := serve("GET", "/metrics", "")
	for _, name := range []string{"drqos_journal_fsync_batches_total ", "drqos_journal_batched_appends_total "} {
		if !bytes.Contains(metrics, []byte("\n"+name)) {
			t.Errorf("aggregate /metrics lacks %s", name)
		}
	}
}
