package server_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drqos/internal/channel"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

func newTestServer(t *testing.T, queue int) *server.Server {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(g, manager.Config{Capacity: 10000}, server.Options{QueueDepth: queue})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConcurrentChurn hammers the actor from many goroutines — arrivals,
// terminations and fault injection interleaved — and then audits the full
// ledger with CheckInvariants.
func TestConcurrentChurn(t *testing.T) {
	s := newTestServer(t, 64)
	ctx := context.Background()
	nodes := s.StatsView().Nodes
	links := s.StatsView().Links
	spec := qos.DefaultSpec()

	const workers = 10
	const opsPerWorker = 150
	var established, terminated, rejected atomic.Int64
	aliveOwned := make([][]channel.ConnID, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(1000 + w))
			for i := 0; i < opsPerWorker; i++ {
				if len(aliveOwned[w]) > 0 && src.Float64() < 0.3 {
					last := len(aliveOwned[w]) - 1
					id := aliveOwned[w][last]
					aliveOwned[w] = aliveOwned[w][:last]
					_, err := s.Terminate(ctx, id)
					// The connection may have been dropped by a
					// concurrent link failure.
					if err != nil && !errors.Is(err, server.ErrNotFound) {
						t.Errorf("terminate %d: %v", id, err)
						return
					}
					if err == nil {
						terminated.Add(1)
					}
					continue
				}
				a, b := src.Intn(nodes), src.Intn(nodes)
				if a == b {
					b = (b + 1) % nodes
				}
				rep, err := s.Establish(ctx, topology.NodeID(a), topology.NodeID(b), spec)
				switch {
				case err == nil:
					established.Add(1)
					aliveOwned[w] = append(aliveOwned[w], rep.Conn.ID)
				case errors.Is(err, manager.ErrRejected):
					rejected.Add(1)
				default:
					t.Errorf("establish: %v", err)
					return
				}
			}
		}(w)
	}
	// One fault injector: fail a link, then repair it, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.New(7)
		for i := 0; i < 40; i++ {
			l := topology.LinkID(src.Intn(links))
			if _, err := s.FailLink(ctx, l); err != nil {
				t.Errorf("fail link %d: %v", l, err)
				return
			}
			if _, err := s.RepairLink(ctx, l); err != nil {
				t.Errorf("repair link %d: %v", l, err)
				return
			}
		}
	}()
	wg.Wait()

	if err := s.CheckInvariants(ctx); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	st, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := established.Load() + rejected.Load(); st.Requests != got {
		t.Errorf("snapshot requests %d, workers issued %d", st.Requests, got)
	}
	if st.Rejects != rejected.Load() {
		t.Errorf("snapshot rejects %d, workers saw %d", st.Rejects, rejected.Load())
	}
	histSum := 0
	for _, n := range st.LevelHistogram {
		histSum += n
	}
	if histSum != st.Alive {
		t.Errorf("level histogram sums to %d, alive %d", histSum, st.Alive)
	}
	if len(st.FailedLinks) != 0 {
		t.Errorf("failed links not all repaired: %v", st.FailedLinks)
	}

	// Drain every owned connection; dropped ones answer ErrNotFound.
	for w := range aliveOwned {
		for _, id := range aliveOwned[w] {
			if _, err := s.Terminate(ctx, id); err != nil && !errors.Is(err, server.ErrNotFound) {
				t.Fatalf("drain terminate %d: %v", id, err)
			}
		}
	}
	st, err = s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Alive != 0 {
		t.Errorf("alive after draining all owned connections: %d", st.Alive)
	}
	if err := s.CheckInvariants(ctx); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownWhileBusy proves the drain guarantee: every call that did not
// return ErrServerClosed was applied exactly once, and the processed-command
// counter matches after Shutdown.
func TestShutdownWhileBusy(t *testing.T) {
	s := newTestServer(t, 8)
	nodes := s.StatsView().Nodes
	spec := qos.DefaultSpec()

	var applied atomic.Int64 // calls that got a real answer (applied once)
	var closedSeen atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(500 + w))
			for {
				a, b := src.Intn(nodes), src.Intn(nodes)
				if a == b {
					b = (b + 1) % nodes
				}
				_, err := s.Establish(context.Background(), topology.NodeID(a), topology.NodeID(b), spec)
				if errors.Is(err, server.ErrServerClosed) {
					closedSeen.Add(1)
					return
				}
				applied.Add(1)
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let the workers get going
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	if closedSeen.Load() != 12 {
		t.Errorf("workers that saw ErrServerClosed: %d, want 12", closedSeen.Load())
	}
	if applied.Load() == 0 {
		t.Fatal("no commands applied before shutdown; test proves nothing")
	}
	if got := s.Processed(); got != applied.Load() {
		t.Errorf("loop processed %d commands, callers got %d answers (dropped or double-applied)", got, applied.Load())
	}
	// Post-shutdown calls fail fast.
	if _, err := s.Establish(context.Background(), 0, 1, spec); !errors.Is(err, server.ErrServerClosed) {
		t.Errorf("establish after shutdown: %v, want ErrServerClosed", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestSubmitQueueFullTimeout wedges the loop, fills the queue, and checks a
// bounded-context submit gives up with the context's error. Accepted fill
// commands whose deadline expired while queued are shed, not executed.
func TestSubmitQueueFullTimeout(t *testing.T) {
	s := newTestServer(t, 1)
	release := make(chan struct{})
	ran := make(chan struct{}, 8)

	// Wedge the loop.
	if err := s.Submit(context.Background(), func(*manager.Manager) {
		<-release
		ran <- struct{}{}
	}); err != nil {
		t.Fatal(err)
	}
	// Keep submitting until the buffer is full and a bounded submit times
	// out. With depth 1 and a wedged loop this takes at most a few tries.
	accepted := 0
	filled := false
	for i := 0; i < 5 && !filled; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		err := s.Submit(ctx, func(*manager.Manager) { ran <- struct{}{} })
		cancel()
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, context.DeadlineExceeded):
			filled = true
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if !filled {
		t.Fatal("queue never filled; deadline path not exercised")
	}
	if accepted == 0 {
		t.Fatal("no command accepted besides the wedge")
	}

	close(release)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Only the wedge ran: every accepted fill command's 30ms deadline died
	// behind the wedge, so the loop shed them instead of executing stale
	// work the caller already abandoned.
	close(ran)
	got := 0
	for range ran {
		got++
	}
	if got != 1 {
		t.Errorf("%d commands executed, want 1 (the wedge; expired fills must be shed)", got)
	}
	expired, canceled := s.Sheds()
	if int(expired+canceled) != accepted {
		t.Errorf("sheds = %d expired + %d canceled, want %d total", expired, canceled, accepted)
	}
}
