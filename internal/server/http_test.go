package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// readEvents decodes jnl's durable records from seq from on.
func readEvents(t *testing.T, jnl *journal.Journal, from uint64) []journal.Event {
	t.Helper()
	frames, _, err := jnl.ReadFrames(from, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := journal.DecodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, 64)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	// Establish with the default paper spec.
	var est server.EstablishResponse
	code, raw := doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 0, Dst: 5}, &est)
	if code != http.StatusCreated {
		t.Fatalf("establish: %d %s", code, raw)
	}
	if est.ID == 0 || est.BandwidthKbps < 100 {
		t.Errorf("establish response: %+v", est)
	}

	// Invalid spec: 422.
	code, _ = doJSON(t, c, "POST", ts.URL+"/v1/connections",
		server.EstablishRequest{Src: 0, Dst: 5, MinKbps: 300, MaxKbps: 100, IncrementKbps: 50}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("invalid spec: code %d, want 422", code)
	}

	// src == dst is a rejection: 409.
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 2, Dst: 2}, nil)
	if code != http.StatusConflict {
		t.Errorf("src==dst: code %d (%s), want 409", code, raw)
	}

	// Stats reflect the admitted connection.
	var st server.Stats
	code, raw = doJSON(t, c, "GET", ts.URL+"/v1/stats", nil, &st)
	if code != http.StatusOK || st.Alive != 1 || st.Requests != 3 {
		t.Errorf("stats: code %d, %+v (%s)", code, st, raw)
	}

	// Terminate, then terminate again: 200 then 404.
	url := fmt.Sprintf("%s/v1/connections/%d", ts.URL, est.ID)
	var tr server.TerminateResponse
	code, raw = doJSON(t, c, "DELETE", url, nil, &tr)
	if code != http.StatusOK || tr.ID != est.ID {
		t.Errorf("terminate: code %d %s", code, raw)
	}
	code, _ = doJSON(t, c, "DELETE", url, nil, nil)
	if code != http.StatusNotFound {
		t.Errorf("double terminate: code %d, want 404", code)
	}
	code, _ = doJSON(t, c, "DELETE", ts.URL+"/v1/connections/garbage", nil, nil)
	if code != http.StatusBadRequest {
		t.Errorf("garbage id: code %d, want 400", code)
	}

	// Fault injection round trip (run after the terminates so the failure
	// cannot drop the connection under test).
	var fr server.FaultResponse
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/faults/link", server.FaultRequest{Link: 0}, &fr)
	if code != http.StatusOK || fr.Action != "fail" {
		t.Fatalf("fail link: code %d %s", code, raw)
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/faults/link", server.FaultRequest{Link: 0}, nil)
	if code != http.StatusConflict {
		t.Errorf("double fail: code %d (%s), want 409", code, raw)
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/faults/link", server.FaultRequest{Link: 0, Action: "repair"}, &fr)
	if code != http.StatusOK {
		t.Errorf("repair: code %d (%s)", code, raw)
	}
	code, _ = doJSON(t, c, "POST", ts.URL+"/v1/faults/link", server.FaultRequest{Link: 1 << 30}, nil)
	if code != http.StatusNotFound {
		t.Errorf("fail unknown link: code %d, want 404", code)
	}

	// Invariants endpoint.
	code, raw = doJSON(t, c, "GET", ts.URL+"/v1/invariants", nil, nil)
	if code != http.StatusOK || !strings.Contains(raw, "true") {
		t.Errorf("invariants: code %d %s", code, raw)
	}

	// Prometheus metrics.
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mb, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"drqos_connections_alive 0",
		"drqos_establish_requests_total 3",
		"drqos_commands_total{kind=\"establish\"} 3",
		"drqos_connections_level{level=\"0\"}",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q in:\n%s", want, mb)
		}
	}
}

// TestLaneReport: after N establishes over HTTP the consuming lane has
// dequeued exactly N commands, its delay figures are ordered, and /metrics
// renders them as the drqos_queue_delay_seconds summary.
func TestLaneReport(t *testing.T) {
	const n = 25
	s := newTestServer(t, 64)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()
	for i := 0; i < n; i++ {
		req := server.EstablishRequest{Src: i % 20, Dst: 20 + i%20}
		if code, raw := doJSON(t, c, "POST", ts.URL+"/v1/connections", req, nil); code != http.StatusCreated && code != http.StatusConflict {
			t.Fatalf("establish %d: %d %s", i, code, raw)
		}
	}

	var st server.Stats
	if code, raw := doJSON(t, c, "GET", ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, raw)
	}
	l := st.Lanes["consuming"]
	if l.DelayCount != n {
		t.Errorf("lanes.consuming.delay_count = %d, want %d", l.DelayCount, n)
	}
	if !(l.DelayP50Sec <= l.DelayP90Sec && l.DelayP90Sec <= l.DelayP99Sec && l.DelayP99Sec <= l.DelayMaxSec && l.DelayMaxSec > 0) {
		t.Errorf("consuming lane delays not ordered p50 <= p90 <= p99 <= max, max > 0: %+v", l)
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mb, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`drqos_queue_delay_seconds{q="consuming",quantile="0.5"} `,
		`drqos_queue_delay_seconds{q="consuming",quantile="0.9"} `,
		`drqos_queue_delay_seconds{q="consuming",quantile="0.99"} `,
		fmt.Sprintf(`drqos_queue_delay_seconds_count{q="consuming"} %d`, n),
	} {
		if !strings.Contains(string(mb), "\n"+want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestInvariantsAnswersOneInstant: on a journaled server under concurrent
// mutators, every (journal_seq, fingerprint) pair GET /v1/invariants
// returns is the fingerprint of the journal replayed up to exactly that
// sequence number — verdict, digest and position come from one loop
// command, so two replicas can be compared at a seq while both keep moving.
func TestInvariantsAnswersOneInstant(t *testing.T) {
	g := journaledGraph(t)
	s, jnl := newJournaledServer(t, g, server.Options{QueueDepth: 64, SnapshotEvery: -1})
	ctx := context.Background()
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()

	type answer struct {
		OK          bool   `json:"ok"`
		Degraded    bool   `json:"degraded"`
		Fingerprint string `json:"fingerprint"`
		JournalSeq  uint64 `json:"journal_seq"`
	}
	done := make(chan struct{})
	var pollWg, mutWg sync.WaitGroup
	answers := make([][]answer, 2)
	// The mutators pace themselves on the pollers — every 20 operations
	// each waits for a fresh answer — so polls land between mutations
	// however the scheduler runs the goroutines: in-process mutations are
	// far cheaper than an HTTP poll.
	var mu sync.Mutex
	fresh := sync.NewCond(&mu)
	polls, pollers := 0, len(answers)
	for p := range answers {
		pollWg.Add(1)
		go func() {
			defer pollWg.Done()
			defer func() {
				mu.Lock()
				pollers--
				fresh.Broadcast()
				mu.Unlock()
			}()
			for {
				select {
				case <-done:
					return
				default:
				}
				var a answer
				if code, raw := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/invariants", nil, &a); code != http.StatusOK || !a.OK || a.Degraded {
					t.Errorf("invariants: %d %s", code, raw)
					return
				}
				answers[p] = append(answers[p], a)
				mu.Lock()
				polls++
				fresh.Broadcast()
				mu.Unlock()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		mutWg.Add(1)
		go func() {
			defer mutWg.Done()
			src := rng.New(uint64(900 + w))
			var mine []channel.ConnID
			for i := 0; i < 60; i++ {
				if i%20 == 0 {
					mu.Lock()
					for seen := polls; polls == seen && pollers > 0; {
						fresh.Wait()
					}
					mu.Unlock()
				}
				if len(mine) > 0 && src.Float64() < 0.4 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if _, err := s.Terminate(ctx, id); err != nil {
						t.Errorf("terminate: %v", err)
					}
					continue
				}
				a, b := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
				if a == b {
					b = (b + 1) % g.NumNodes()
				}
				rep, err := s.Establish(ctx, topology.NodeID(a), topology.NodeID(b), qos.DefaultSpec())
				if err == nil {
					mine = append(mine, rep.Conn.ID)
				} else if !errors.Is(err, manager.ErrRejected) {
					t.Errorf("establish: %v", err)
				}
			}
		}()
	}
	mutWg.Wait()
	close(done)
	pollWg.Wait()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Replay the journal record by record, noting the fingerprint at each
	// sequence number.
	evs := readEvents(t, jnl, 1)
	m, txns, err := server.Rebuild(g, manager.Config{Capacity: 10000}, &journal.Recovered{})
	if err != nil {
		t.Fatal(err)
	}
	at := map[uint64]string{0: m.ExportState().Fingerprint()}
	for _, ev := range evs {
		if err := server.Replay(m, txns, ev); err != nil {
			t.Fatalf("replay seq %d: %v", ev.Seq, err)
		}
		at[ev.Seq] = m.ExportState().Fingerprint()
	}
	seqs := make(map[uint64]bool)
	for p := range answers {
		for _, a := range answers[p] {
			seqs[a.JournalSeq] = true
			if want, ok := at[a.JournalSeq]; !ok || a.Fingerprint != want {
				t.Fatalf("invariants answered fingerprint %s at journal_seq %d; replay to that seq holds %s", a.Fingerprint, a.JournalSeq, want)
			}
		}
	}
	if len(seqs) < 3 {
		t.Fatalf("pollers saw only %d distinct journal positions of %d; the mutators did not run beside them", len(seqs), len(evs))
	}
}
