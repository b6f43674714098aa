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
	"testing"
	"time"

	"drqos/internal/core"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
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
		var resp shard.EstablishResponse
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
