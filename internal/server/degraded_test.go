package server_test

import (
	"context"
	"errors"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// TestSubmitPreCancelledContext is the regression test for the admission
// race: when the queue has space AND the context is already dead, both
// cases of submit's select are ready and Go picks uniformly at random —
// so without an explicit up-front ctx.Err() check, a cancelled caller
// would enqueue its command about half the time. The command must never
// run.
func TestSubmitPreCancelledContext(t *testing.T) {
	s := newTestServer(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var ran atomic.Int64
	// Many attempts: before the fix this enqueued with probability ~1/2
	// per attempt, so 200 tries fail with probability ~1 - 2^-200.
	for i := 0; i < 200; i++ {
		err := s.Submit(ctx, func(*manager.Manager) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("submit with dead context: %v, want context.Canceled", err)
		}
	}
	// Drain the loop so any sneaked-in command would have executed.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d commands ran despite pre-cancelled context", n)
	}
	if n := s.Processed(); n != 0 {
		t.Fatalf("loop processed %d commands, want 0", n)
	}
}

// TestShutdownRacesMixedSubmits fires Shutdown mid-burst while workers
// issue the full mutating + read op mix, and checks the exactly-once
// contract: afterwards the loop's processed count equals the number of
// calls that got real answers.
func TestShutdownRacesMixedSubmits(t *testing.T) {
	s := newTestServer(t, 8)
	nodes := s.StatsView().Nodes
	links := s.StatsView().Links
	spec := qos.DefaultSpec()

	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(9000 + w))
			ctx := context.Background()
			for {
				var err error
				switch draw := src.Float64(); {
				case draw < 0.50:
					a, b := src.Intn(nodes), src.Intn(nodes)
					if a == b {
						b = (b + 1) % nodes
					}
					_, err = s.Establish(ctx, topology.NodeID(a), topology.NodeID(b), spec)
					if errors.Is(err, manager.ErrRejected) {
						err = nil
					}
				case draw < 0.65:
					_, err = s.FailLink(ctx, topology.LinkID(src.Intn(links)))
					if errors.Is(err, server.ErrConflict) {
						err = nil
					}
				case draw < 0.80:
					_, err = s.RepairLink(ctx, topology.LinkID(src.Intn(links)))
					if errors.Is(err, server.ErrConflict) {
						err = nil
					}
				case draw < 0.95:
					_, err = s.Snapshot(ctx)
				default:
					err = s.CheckInvariants(ctx)
				}
				if errors.Is(err, server.ErrServerClosed) {
					return
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				answered.Add(1)
			}
		}(w)
	}

	time.Sleep(15 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	if answered.Load() == 0 {
		t.Fatal("no commands answered before shutdown; test proves nothing")
	}
	if got := s.Processed(); got != answered.Load() {
		t.Errorf("loop processed %d, callers got %d answers (dropped or double-applied)", got, answered.Load())
	}
}

// TestShutdownDrainExpiredContext wedges the loop and calls Shutdown with
// an already-expired context: the call must give up with the context's
// error but still close admission; once the wedge lifts, a second
// Shutdown observes the completed drain and every accepted command ran.
func TestShutdownDrainExpiredContext(t *testing.T) {
	s := newTestServer(t, 4)
	release := make(chan struct{})
	var ran atomic.Int64
	if err := s.Submit(context.Background(), func(*manager.Manager) {
		<-release
		ran.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(context.Background(), func(*manager.Manager) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown with expired context: %v, want context.Canceled", err)
	}
	// Admission is closed even though the drain wait was abandoned.
	if err := s.Submit(context.Background(), func(*manager.Manager) {}); !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("submit after abandoned shutdown: %v, want ErrServerClosed", err)
	}

	close(release)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d accepted commands ran, want 2 (accepted work must survive an abandoned drain wait)", n)
	}
}

// logCapture is a slog handler that keeps every record as its message
// ("msg") and attributes, in text. The server logs its own transitions
// (degrade, recover, overload) through the default logger, so the tests
// count them here.
type logCapture struct {
	mu   sync.Mutex
	recs []map[string]string
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	rec := map[string]string{"msg": r.Message}
	r.Attrs(func(a slog.Attr) bool {
		rec[a.Key] = a.Value.String()
		return true
	})
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
	return nil
}

// records returns the records seen so far whose message starts with prefix.
func (c *logCapture) records(prefix string) []map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []map[string]string
	for _, r := range c.recs {
		if strings.HasPrefix(r["msg"], prefix) {
			out = append(out, r)
		}
	}
	return out
}

// captureLog routes the default slog logger into a logCapture until the
// test ends. No test in this package runs in parallel, so swapping the
// process-wide default is safe.
func captureLog(t *testing.T) *logCapture {
	c := &logCapture{}
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(c))
	t.Cleanup(func() {
		// SetDefault redirected the log package into c; point it back.
		slog.SetDefault(prev)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	return c
}

func newDegradedTestServer(t *testing.T) *server.Server {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(g, manager.Config{Capacity: 10000}, server.Options{
		QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corrupt plants an aggregate-ledger corruption through the command loop,
// so the next audit must fail.
func corrupt(t *testing.T, s *server.Server) {
	t.Helper()
	if err := s.Submit(context.Background(), func(m *manager.Manager) {
		m.CorruptAggregatesForTesting()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedMode forces an invariant violation and checks the failure
// contract end to end: the server flips degraded exactly once and keeps
// answering reads.
func TestDegradedMode(t *testing.T) {
	logs := captureLog(t)
	s := newDegradedTestServer(t)
	defer s.Shutdown(context.Background())
	ctx := context.Background()
	spec := qos.DefaultSpec()

	// Healthy first: a connection goes in, audit is clean.
	if _, err := s.Establish(ctx, 0, 5, spec); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(ctx); err != nil {
		t.Fatalf("clean audit: %v", err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("degraded before any violation")
	}

	corrupt(t, s)
	// The audit discovers the corruption and that discovery itself flips
	// the server.
	if err := s.CheckInvariants(ctx); !errors.As(err, new(*manager.InvariantViolation)) {
		t.Fatalf("audit after corruption: %v, want InvariantViolation", err)
	}
	deg, reason := s.Degraded()
	if !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q after dirty audit", deg, reason)
	}
	if n := s.StatsView().InvariantViolations; n < 1 {
		t.Fatalf("invariant_violations = %d, want >= 1", n)
	}

	// Every mutation is now refused with ErrDegraded: TestMutationGuardMatrix.

	// Reads stay up and reflect the failure.
	st, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot while degraded: %v", err)
	}
	if !st.Degraded || st.DegradedReason == "" || st.InvariantViolations < 1 {
		t.Errorf("snapshot degraded fields: %+v", st)
	}
	if st.Alive != 1 {
		t.Errorf("snapshot alive = %d while degraded, want 1 (reads must still work)", st.Alive)
	}

	// Repeated dirty audits bump the counter but log the degrade only once,
	// with its reason.
	_ = s.CheckInvariants(ctx)
	if recs := logs.records("degraded"); len(recs) != 1 || recs[0]["reason"] == "" {
		t.Errorf("degrade records %v, want exactly 1 naming its reason", recs)
	}
}

// TestDegradedHTTP checks the HTTP surface of degraded mode: mutations
// answer 503, /v1/invariants and /v1/stats report the state, /metrics
// exposes the gauge and counter.
func TestDegradedHTTP(t *testing.T) {
	s := newDegradedTestServer(t)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	corrupt(t, s)
	code, raw := doJSON(t, c, "GET", ts.URL+"/v1/invariants", nil, nil)
	if code != http.StatusInternalServerError || !strings.Contains(raw, `"degraded": true`) {
		t.Fatalf("invariants after corruption: %d %s", code, raw)
	}

	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 0, Dst: 5}, nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("establish while degraded: %d (%s), want 503", code, raw)
	}

	var st server.Stats
	code, raw = doJSON(t, c, "GET", ts.URL+"/v1/stats", nil, &st)
	if code != http.StatusOK || !st.Degraded || st.DegradedReason == "" {
		t.Errorf("stats while degraded: %d %s", code, raw)
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mb, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"drqos_degraded 1", "drqos_invariant_violations_total"} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q in:\n%s", want, mb)
		}
	}
}

// TestFrozenSnapshotMetric: degraded mode suspends epoch publishing, so the
// snapshot age climbs by design; the drqos_snapshot_frozen gauge must flip
// to 1 (and Stats.Epoch.Frozen to true) so dashboards can tell a frozen
// read path from a wedged loop — and staleness alarms can exclude it.
func TestFrozenSnapshotMetric(t *testing.T) {
	s := newDegradedTestServer(t)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	scrape := func() string {
		t.Helper()
		resp, err := c.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		mb, _ := io.ReadAll(resp.Body)
		return string(mb)
	}

	// Healthy: not frozen, in both /metrics and /v1/stats.
	if mb := scrape(); !strings.Contains(mb, "drqos_snapshot_frozen 0") {
		t.Fatalf("healthy server: want drqos_snapshot_frozen 0 in:\n%s", mb)
	}
	st := s.StatsView()
	if st.Epoch == nil || st.Epoch.Frozen {
		t.Fatalf("healthy server: Epoch.Frozen = %+v, want false", st.Epoch)
	}

	corrupt(t, s)
	if err := s.CheckInvariants(context.Background()); !errors.As(err, new(*manager.InvariantViolation)) {
		t.Fatalf("audit after corruption: %v, want InvariantViolation", err)
	}
	if mb := scrape(); !strings.Contains(mb, "drqos_snapshot_frozen 1") {
		t.Fatalf("degraded server: want drqos_snapshot_frozen 1 in:\n%s", mb)
	}
	st = s.StatsView()
	if st.Epoch == nil || !st.Epoch.Frozen {
		t.Fatalf("degraded server: Epoch.Frozen = %+v, want true", st.Epoch)
	}
}
