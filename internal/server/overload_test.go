package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"drqos/internal/manager"
	"drqos/internal/overload"
	"drqos/internal/qos"
	"drqos/internal/server"
)

// TestExpiredCommandShed wedges the loop, queues establishes whose callers
// then give up, and checks none of them executes: the loop must shed stale
// mutations instead of applying work nobody is waiting for.
func TestExpiredCommandShed(t *testing.T) {
	s := newTestServer(t, 64)
	release := make(chan struct{})
	if err := s.Submit(context.Background(), func(*manager.Manager) { <-release }); err != nil {
		t.Fatal(err)
	}

	const n = 10
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Establish(ctx, 0, 5, qos.DefaultSpec())
			if !errors.Is(err, context.Canceled) {
				t.Errorf("establish behind wedge: %v, want context.Canceled", err)
			}
		}()
	}
	// Wait until all n commands are actually queued, then abandon them.
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d commands queued", s.QueueDepth(), n)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	close(release)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	expired, canceled := s.Sheds()
	if expired+canceled != n {
		t.Errorf("sheds = %d expired + %d canceled, want %d total", expired, canceled, n)
	}
	if got := s.Establishes(); got != 0 {
		t.Errorf("%d abandoned establishes executed, want 0", got)
	}
}

// TestPriorityLaneOrdering wedges the loop, interleaves consuming-lane and
// freeing-lane submissions, and checks the drain order: every queued
// freeing command (terminations, repairs) runs before any queued
// consuming command (establishes), regardless of arrival order.
func TestPriorityLaneOrdering(t *testing.T) {
	s := newTestServer(t, 64)
	release := make(chan struct{})
	if err := s.Submit(context.Background(), func(*manager.Manager) { <-release }); err != nil {
		t.Fatal(err)
	}

	// Arrival order deliberately consuming-first. The slice is only
	// appended to from inside the loop goroutine, so no lock is needed.
	var order []string
	ctx := context.Background()
	for _, c := range []string{"c1", "c2", "c3"} {
		c := c
		if err := s.SubmitConsuming(ctx, func(*manager.Manager) { order = append(order, c) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"f1", "f2"} {
		f := f
		if err := s.Submit(ctx, func(*manager.Manager) { order = append(order, f) }); err != nil {
			t.Fatal(err)
		}
	}

	close(release)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	want := "f1,f2,c1,c2,c3"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("drain order %q, want %q (freeing lane must jump the queue)", got, want)
	}
}

// TestOverloadDetectorEndToEnd drives a server with an artificial per-
// command execution delay into sustained consuming-lane queue delay and
// checks the overloaded state latches, then self-clears once the backlog
// drains and the queue goes quiet.
func TestOverloadDetectorEndToEnd(t *testing.T) {
	logs := captureLog(t)
	s := newOverloadTestServer(t, server.Options{
		QueueDepth: 256,
		ExecDelay:  2 * time.Millisecond,
		Overload:   overload.DetectorConfig{Target: time.Millisecond, Interval: 5 * time.Millisecond},
	})
	defer s.Shutdown(context.Background())
	ctx := context.Background()

	// 100 establishes at 2ms service time each: by a few commands in, the
	// consuming lane's queueing delay far exceeds the 1ms target for well
	// over the 5ms interval. A goroutine scheduled after the latch engaged
	// is refused at admission; everything queued before it still runs.
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Establish(ctx, 0, 5, qos.DefaultSpec())
			if err != nil && !errors.Is(err, manager.ErrRejected) && !errors.Is(err, server.ErrOverloaded) {
				t.Errorf("establish: %v", err)
			}
		}()
	}
	wg.Wait()

	if got := s.OverloadEpisodes(); got == 0 {
		t.Fatal("sustained 2ms/command backlog never latched the overload state")
	}
	if flips := logs.records("overload"); len(flips) == 0 || !strings.HasPrefix(flips[0]["msg"], "overloaded") {
		t.Errorf("overload records %v, want the first to say overloaded", flips)
	}
	// Backlog fully drained and quiet: the latch must clear by itself
	// (either a below-target sample or the idle self-clear path).
	deadline := time.Now().Add(5 * time.Second)
	for s.Overloaded() {
		if time.Now().After(deadline) {
			t.Fatal("overloaded state never cleared after the queue drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func newOverloadTestServer(t *testing.T, opt server.Options) *server.Server {
	t.Helper()
	g := journaledGraph(t)
	s, err := server.New(g, manager.Config{Capacity: 10000}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHTTPOverloadShedding forces the overloaded state and checks the HTTP
// contract: new capacity-consuming work answers 503 with a Retry-After
// hint, while terminations and reads stay live.
func TestHTTPOverloadShedding(t *testing.T) {
	s := newTestServer(t, 64)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	var est server.EstablishResponse
	if code, raw := doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 0, Dst: 5}, &est); code != http.StatusCreated {
		t.Fatalf("establish while healthy: %d %s", code, raw)
	}

	s.ForceOverloaded(true)

	// Establish is shed with a machine-readable back-off hint.
	resp := post(t, c, ts.URL+"/v1/connections", `{"src":1,"dst":6}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("establish while overloaded: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("503 Retry-After header = %q, want >= 1", ra)
	}
	// Fail injection consumes capacity too: shed.
	resp = post(t, c, ts.URL+"/v1/faults/link", `{"link":0,"action":"fail"}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fail-link while overloaded: %d, want 503", resp.StatusCode)
	}
	// Reads stay live and report the state.
	var st server.Stats
	if code, raw := doJSON(t, c, "GET", ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats while overloaded: %d %s", code, raw)
	}
	if !st.Overloaded {
		t.Error("stats.Overloaded = false while forced overloaded")
	}
	if code, raw := doJSON(t, c, "GET", ts.URL+"/metrics", nil, nil); code != http.StatusOK || !strings.Contains(raw, "drqos_overloaded 1") {
		t.Errorf("metrics while overloaded: %d, want drqos_overloaded 1 in body", code)
	}
	// Termination frees capacity: it must be admitted.
	var term server.TerminateResponse
	if code, raw := doJSON(t, c, "DELETE", ts.URL+"/v1/connections/"+strconv.FormatInt(est.ID, 10), nil, &term); code != http.StatusOK {
		t.Errorf("terminate while overloaded: %d %s, want 200", code, raw)
	}

	s.ForceOverloaded(false)
	if code, raw := doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 1, Dst: 6}, nil); code != http.StatusCreated {
		t.Errorf("establish after clear: %d %s, want 201", code, raw)
	}
}

// TestHTTPRateLimit checks the per-client token bucket: a client that
// exceeds its budget gets 429 + Retry-After, other clients are unaffected,
// and the bucket refills with time.
func TestHTTPRateLimit(t *testing.T) {
	s := newTestServer(t, 64)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s, server.WithRateLimit(5, 2)))
	defer ts.Close()
	c := ts.Client()

	send := func(clientID string) *http.Response {
		t.Helper()
		return post(t, c, ts.URL+"/v1/connections", `{"src":0,"dst":5}`, map[string]string{"X-Client-ID": clientID})
	}

	// Burst of 2 admitted, third refused.
	for i := 0; i < 2; i++ {
		if resp := send("alice"); resp.StatusCode != http.StatusCreated {
			t.Fatalf("burst request %d: %d, want 201", i, resp.StatusCode)
		}
	}
	resp := send("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	// Another client has its own bucket.
	if resp := send("bob"); resp.StatusCode != http.StatusCreated {
		t.Errorf("other client: %d, want 201", resp.StatusCode)
	}
	// Refill: at 5 tokens/s, 300ms buys one more request.
	time.Sleep(300 * time.Millisecond)
	if resp := send("alice"); resp.StatusCode != http.StatusCreated {
		t.Errorf("post-refill request: %d, want 201", resp.StatusCode)
	}
	// The refusal is visible in metrics.
	if code, raw := doJSON(t, c, "GET", ts.URL+"/metrics", nil, nil); code != http.StatusOK || !strings.Contains(raw, "drqos_rate_limited_total") {
		t.Errorf("metrics: %d, want drqos_rate_limited_total in body", code)
	}
}

// TestHTTPMaxBody checks mutation bodies past the 1 MiB cap answer 413.
func TestHTTPMaxBody(t *testing.T) {
	s := newTestServer(t, 64)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	resp := post(t, c, ts.URL+"/v1/connections", `{"src":0,"dst":5,"pad":"`+strings.Repeat("x", 1<<20)+`"}`, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", resp.StatusCode)
	}
	// A body under the cap still works.
	if code, raw := doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 0, Dst: 5}, nil); code != http.StatusCreated {
		t.Errorf("small body: %d %s, want 201", code, raw)
	}
}

// TestReadyzOverloaded checks the readiness probe flips with the
// overloaded state while liveness stays green.
func TestReadyzOverloaded(t *testing.T) {
	s := newTestServer(t, 64)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	if code, raw := doJSON(t, c, "GET", ts.URL+"/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("readyz while healthy: %d %s", code, raw)
	}
	s.ForceOverloaded(true)
	resp := get(t, c, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while overloaded: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("not-ready readyz without Retry-After header")
	}
	if code, _ := doJSON(t, c, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz while overloaded: %d, want 200 (liveness must not flap)", code)
	}
	s.ForceOverloaded(false)
	if code, raw := doJSON(t, c, "GET", ts.URL+"/readyz", nil, nil); code != http.StatusOK {
		t.Errorf("readyz after clear: %d %s, want 200", code, raw)
	}
}

// TestReadyzRecoveryFlow walks the probe through degraded → recovering →
// ready on a journaled server: corruption flips it not-ready, a recovery
// blocked at the swap reports recovering, and the completed swap restores
// readiness.
func TestReadyzRecoveryFlow(t *testing.T) {
	g := journaledGraph(t)
	s, _ := newJournaledServer(t, g, server.Options{QueueDepth: 64})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()
	ctx := context.Background()

	establishN(t, s, 5)
	corrupt(t, s)
	if err := s.CheckInvariants(ctx); err == nil {
		t.Fatal("audit of corrupted state passed")
	}

	var body struct {
		Ready      bool `json:"ready"`
		Degraded   bool `json:"degraded"`
		Recovering bool `json:"recovering"`
	}
	if code, _ := doJSON(t, c, "GET", ts.URL+"/readyz", nil, &body); code != http.StatusServiceUnavailable || !body.Degraded {
		t.Fatalf("readyz while degraded: %d %+v, want 503 degraded", code, body)
	}

	// Wedge the loop so Recover blocks at its swap command, making the
	// transient recovering state observable.
	release := make(chan struct{})
	if err := s.Submit(ctx, func(*manager.Manager) { <-release }); err != nil {
		t.Fatal(err)
	}
	recoverErr := make(chan error, 1)
	go func() {
		_, err := s.Recover(ctx)
		recoverErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := doJSON(t, c, "GET", ts.URL+"/readyz", nil, &body); code == http.StatusServiceUnavailable && body.Recovering {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported recovering: %+v", body)
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if err := <-recoverErr; err != nil {
		t.Fatalf("recover: %v", err)
	}
	if code, _ := doJSON(t, c, "GET", ts.URL+"/readyz", nil, &body); code != http.StatusOK || !body.Ready {
		t.Errorf("readyz after recovery: %d %+v, want 200 ready", code, body)
	}
}

// post issues a raw POST with optional headers and returns the drained
// response, so tests can inspect status and headers together.
func post(t *testing.T, c *http.Client, url, body string, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func get(t *testing.T, c *http.Client, url string) *http.Response {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}
