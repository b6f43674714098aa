package server_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

func journaledGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newJournaledServer(t *testing.T, g *topology.Graph, opt server.Options) (*server.Server, *journal.Journal) {
	t.Helper()
	return newJournaledServerIn(t, g, t.TempDir(), opt)
}

// newJournaledServerIn is newJournaledServer over a journal in dir.
func newJournaledServerIn(t *testing.T, g *topology.Graph, dir string, opt server.Options) (*server.Server, *journal.Journal) {
	t.Helper()
	jnl, rec, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	if rec.LastSeq != 0 {
		t.Fatalf("fresh dir recovered seq %d", rec.LastSeq)
	}
	opt.Journal = jnl
	s, err := server.New(g, manager.Config{Capacity: 10000}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, jnl
}

func establishN(t *testing.T, s *server.Server, n int) {
	t.Helper()
	ctx := context.Background()
	nodes := s.StatsView().Nodes
	r := rng.New(99)
	made := 0
	for made < n {
		src := topology.NodeID(r.Intn(nodes))
		dst := topology.NodeID(r.Intn(nodes))
		if src == dst {
			continue
		}
		if _, err := s.Establish(ctx, src, dst, qos.DefaultSpec()); err == nil {
			made++
		} else if !errors.Is(err, manager.ErrRejected) {
			t.Fatal(err)
		}
	}
}

// TestRestartReplaysJournal is the crash/restart contract at the server
// level: a second server built via Rebuild from the same data dir reports
// the same population as the one that wrote it.
func TestRestartReplaysJournal(t *testing.T) {
	g := journaledGraph(t)
	dir := t.TempDir()
	s, _ := newJournaledServerIn(t, g, dir, server.Options{SnapshotEvery: 7})
	ctx := context.Background()
	establishN(t, s, 20)
	if _, err := s.FailLink(ctx, 0); err != nil && !errors.Is(err, server.ErrConflict) {
		t.Fatal(err)
	}
	before, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !before.Journaled || before.JournalSeq == 0 {
		t.Fatalf("journal fields missing from stats: %+v", before)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// No jnl.Close(): simulate the crash by reopening the directory.

	jnl2, rec, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if rec.SnapshotSeq == 0 {
		t.Fatal("SnapshotEvery=7 over 21 events produced no snapshot")
	}
	m, _, err := server.Rebuild(g, manager.Config{Capacity: 10000}, rec)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := server.NewFromManager(g, m, server.Options{Journal: jnl2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(ctx)
	after, err := s2.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Alive != before.Alive || after.Requests != before.Requests || after.Rejects != before.Rejects {
		t.Fatalf("replayed population %d/%d/%d, want %d/%d/%d",
			after.Alive, after.Requests, after.Rejects, before.Alive, before.Requests, before.Rejects)
	}
	if len(after.LevelHistogram) != len(before.LevelHistogram) {
		t.Fatalf("histogram %v vs %v", after.LevelHistogram, before.LevelHistogram)
	}
	for i := range after.LevelHistogram {
		if after.LevelHistogram[i] != before.LevelHistogram[i] {
			t.Fatalf("histogram %v vs %v", after.LevelHistogram, before.LevelHistogram)
		}
	}
	if len(after.FailedLinks) != len(before.FailedLinks) {
		t.Fatalf("failed links %v vs %v", after.FailedLinks, before.FailedLinks)
	}
	// The restarted server keeps journaling where the old one stopped.
	establishN(t, s2, 1)
	if got := jnl2.LastSeq(); got != before.JournalSeq+1 {
		t.Fatalf("journal seq after restart %d, want %d", got, before.JournalSeq+1)
	}
}

// TestRecoverHTTP drives the full supervised-recovery path over HTTP: a
// journaled server degrades on an injected out-of-band corruption, refuses
// mutations with 503, then POST /v1/admin/recover rebuilds from the journal
// and the server serves mutations again, with the metrics to prove it.
func TestRecoverHTTP(t *testing.T) {
	g := journaledGraph(t)
	logs := captureLog(t)
	s, _ := newJournaledServer(t, g, server.Options{SnapshotEvery: 5})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	// Recover on a healthy server is a 409.
	code, raw := doJSON(t, c, "POST", ts.URL+"/v1/admin/recover", nil, nil)
	if code != http.StatusConflict {
		t.Fatalf("recover while healthy: %d %s, want 409", code, raw)
	}

	establishN(t, s, 12)
	corrupt(t, s)
	code, raw = doJSON(t, c, "GET", ts.URL+"/v1/invariants", nil, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("invariants after corruption: %d %s", code, raw)
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 0, Dst: 5}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("establish while degraded: %d %s, want 503", code, raw)
	}

	// The corruption was injected out-of-band (not journaled), so replaying
	// the journal rebuilds the clean state and recovery succeeds.
	var rr struct {
		Recovered  bool   `json:"recovered"`
		JournalSeq uint64 `json:"journal_seq"`
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/admin/recover", nil, &rr)
	if code != http.StatusOK || !rr.Recovered || rr.JournalSeq == 0 {
		t.Fatalf("recover: %d %s", code, raw)
	}
	if n := len(logs.records("recovered")); n != 1 {
		t.Fatalf("recovery logged %d times, want 1", n)
	}

	// Back in service: audit clean, mutations succeed, stats un-latched.
	if err := s.CheckInvariants(context.Background()); err != nil {
		t.Fatalf("audit after recovery: %v", err)
	}
	var st server.Stats
	code, raw = doJSON(t, c, "GET", ts.URL+"/v1/stats", nil, &st)
	if code != http.StatusOK || st.Degraded || st.Recoveries != 1 || st.Alive != 12 {
		t.Fatalf("stats after recovery: %d %s", code, raw)
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 0, Dst: 5}, nil)
	if code != http.StatusCreated && code != http.StatusConflict { // admission may legitimately reject
		t.Fatalf("establish after recovery: %d %s", code, raw)
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mb, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"drqos_recoveries_total 1", "drqos_recovery_failures_total 0",
		"drqos_degraded 0", "drqos_recovering 0", "drqos_journaled 1", "drqos_journal_seq"} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q in:\n%s", want, mb)
		}
	}
}

// TestAutoRecover checks the supervisor: with Options.AutoRecover the
// server exits degraded mode by itself.
func TestAutoRecover(t *testing.T) {
	g := journaledGraph(t)
	s, _ := newJournaledServer(t, g, server.Options{AutoRecover: true})
	defer s.Shutdown(context.Background())
	establishN(t, s, 5)
	corrupt(t, s)
	if err := s.CheckInvariants(context.Background()); !errors.As(err, new(*manager.InvariantViolation)) {
		t.Fatalf("audit after corruption: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if deg, _ := s.Degraded(); !deg {
			break
		}
		if time.Now().After(deadline) {
			_, _, fails, lastErr := s.RecoveryStatus()
			t.Fatalf("auto recovery never un-latched degraded (failures %d, last %q)", fails, lastErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, recoveries, _, _ := s.RecoveryStatus(); recoveries < 1 {
		t.Fatal("no recovery counted")
	}
	establishN(t, s, 1)
}

// TestRecoverWithoutJournal: an in-memory server has nothing to rebuild
// from; recovery is refused and degraded stays latched.
func TestRecoverWithoutJournal(t *testing.T) {
	s := newDegradedTestServer(t)
	defer s.Shutdown(context.Background())
	corrupt(t, s)
	_ = s.CheckInvariants(context.Background())
	if _, err := s.Recover(context.Background()); !errors.Is(err, server.ErrNoJournal) {
		t.Fatalf("recover without journal: %v, want ErrNoJournal", err)
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("degraded un-latched by a refused recovery")
	}
}
