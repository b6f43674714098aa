package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// checkEpochInternal asserts that one observed EpochView is internally
// consistent: its aggregates agree with each other, so no reader can see a
// half-applied mutation.
func checkEpochInternal(t *testing.T, v *server.EpochView) {
	t.Helper()
	if v == nil {
		t.Fatal("nil epoch view")
	}
	if v.PublishedAt.IsZero() || v.Seq == 0 {
		t.Fatalf("malformed epoch: seq %d, published %v", v.Seq, v.PublishedAt)
	}
	if age := time.Since(v.PublishedAt); age < 0 || age > time.Minute {
		t.Fatalf("epoch %d age %v out of bounds", v.Seq, age)
	}
	if v.Rejects > v.Requests || v.Unprotected > v.Alive || int64(v.Alive) > v.Requests-v.Rejects {
		t.Fatalf("epoch %d: %d requests, %d rejects, %d alive, %d unprotected cannot all be true at once",
			v.Seq, v.Requests, v.Rejects, v.Alive, v.Unprotected)
	}
	histSum := 0
	for _, n := range v.LevelHistogram {
		histSum += n
	}
	if histSum != v.Alive {
		t.Fatalf("epoch %d: level histogram sums to %d, alive %d", v.Seq, histSum, v.Alive)
	}
	if (v.Alive == 0) != (v.AvgBandwidthKbps == 0) {
		t.Fatalf("epoch %d: %d alive at an average of %v Kbps", v.Seq, v.Alive, v.AvgBandwidthKbps)
	}
}

// aggregateKey renders the aggregates an epoch carries, read here off a
// manager by hand: the reference the published ones are matched against.
func aggregateKey(requests, rejects int64, alive, unprotected int, hist []int, avg float64, failed []int) string {
	return fmt.Sprint(requests, rejects, alive, unprotected, hist, avg, failed)
}

func managerKey(m *manager.Manager) string {
	var failed []int
	for l := 0; l < m.Graph().NumLinks(); l++ {
		if m.Network().Failed(topology.LinkID(l)) {
			failed = append(failed, l)
		}
	}
	return aggregateKey(m.SnapshotHeader().Requests, m.SnapshotHeader().Rejects, m.AliveCount(), m.UnprotectedCount(),
		m.LevelHistogram(nil), m.AverageBandwidth(), failed)
}

func viewKey(v *server.EpochView) string {
	return aggregateKey(v.Requests, v.Rejects, v.Alive, v.Unprotected,
		v.LevelHistogram, v.AvgBandwidthKbps, v.FailedLinks)
}

// TestEpochViewConsistencyUnderChurn is the epoch contract under -race:
// one sequential mutator drives the server while a shadow manager replays
// the identical acknowledged prefix; concurrent pollers grab epoch views
// the whole time. Every observed view must have bounded age, internally
// consistent aggregates, and aggregates equal to the shadow's after some
// acknowledged prefix — a later epoch never an earlier prefix — i.e. each
// epoch IS a real point in history, never a blend of two mutations.
func TestEpochViewConsistencyUnderChurn(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := manager.Config{Capacity: 10000}
	s, err := server.New(g, cfg, server.Options{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	shadow, err := manager.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every op moves Requests, Alive or the failed-link set, so a prefix's
	// aggregates name it.
	prefixes := map[string]int{managerKey(shadow): 0}

	type observed struct {
		seq uint64
		key string
	}
	// The operations start once every poller has taken a view, and the
	// pollers stop once each has seen the final epoch: under load the 200
	// operations can otherwise finish before a poller is first scheduled.
	done := make(chan struct{})
	const pollers = 3
	obs := make([][]observed, pollers)
	seen := make([]atomic.Uint64, pollers) // each poller's latest seq
	var pollWg, started sync.WaitGroup
	started.Add(pollers)
	for p := 0; p < pollers; p++ {
		pollWg.Add(1)
		go func(p int) {
			defer pollWg.Done()
			// A failed check ends the goroutine; it has started all the same.
			begun := sync.OnceFunc(started.Done)
			defer begun()
			var lastSeq uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v := s.View()
				checkEpochInternal(t, v)
				if v.Seq < lastSeq {
					t.Errorf("poller %d: epoch seq went backwards %d -> %d", p, lastSeq, v.Seq)
				} else if v.Seq != lastSeq {
					lastSeq = v.Seq
					obs[p] = append(obs[p], observed{v.Seq, viewKey(v)})
					seen[p].Store(v.Seq)
				}
				begun()
				if t.Failed() {
					return
				}
			}
		}(p)
	}
	started.Wait()

	ctx := context.Background()
	src := rng.New(99)
	spec := qos.DefaultSpec()
	var alive []channel.ConnID
	const ops = 200
	failed := -1
	for i := 1; i <= ops; i++ {
		switch r := src.Float64(); {
		case i%25 == 0:
			// Fail a link, then repair it: FailedLinks is part of the match.
			l := topology.LinkID(src.Intn(g.NumLinks()))
			if failed >= 0 {
				l = topology.LinkID(failed)
				if _, err := s.RepairLink(ctx, l); err != nil {
					t.Fatalf("repair %d: %v", l, err)
				}
				if _, err := shadow.RepairLink(l); err != nil {
					t.Fatalf("shadow repair %d: %v", l, err)
				}
				failed = -1
				break
			}
			rep, err := s.FailLink(ctx, l)
			if err != nil {
				t.Fatalf("fail %d: %v", l, err)
			}
			if _, err := shadow.FailLink(l); err != nil {
				t.Fatalf("shadow fail %d: %v", l, err)
			}
			failed = int(l)
			dropped := make(map[channel.ConnID]bool)
			for _, id := range rep.Dropped {
				dropped[id] = true
			}
			kept := alive[:0]
			for _, id := range alive {
				if !dropped[id] {
					kept = append(kept, id)
				}
			}
			alive = kept
		case len(alive) > 0 && r < 0.35:
			id := alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			if _, err := s.Terminate(ctx, id); err != nil {
				t.Fatalf("terminate %d: %v", id, err)
			}
			if _, err := shadow.Terminate(id); err != nil {
				t.Fatalf("shadow terminate %d: %v", id, err)
			}
		default:
			a, b := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
			if a == b {
				b = (b + 1) % g.NumNodes()
			}
			rep, err := s.Establish(ctx, topology.NodeID(a), topology.NodeID(b), spec)
			_, shadowErr := shadow.Establish(topology.NodeID(a), topology.NodeID(b), spec)
			if (err == nil) != (shadowErr == nil) {
				t.Fatalf("op %d: server err %v, shadow err %v — divergence", i, err, shadowErr)
			}
			if err != nil && !errors.Is(err, manager.ErrRejected) {
				t.Fatalf("establish: %v", err)
			}
			if err == nil {
				alive = append(alive, rep.Conn.ID)
			}
		}
		key := managerKey(shadow)
		if prev, dup := prefixes[key]; dup {
			t.Fatalf("prefixes %d and %d have the same aggregates; the match below would be ambiguous", prev, i)
		}
		prefixes[key] = i
	}
	final := s.View().Seq
	for deadline := time.Now().Add(10 * time.Second); !t.Failed(); {
		caughtUp := 0
		for p := range seen {
			if seen[p].Load() >= final {
				caughtUp++
			}
		}
		if caughtUp == pollers {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("%d of %d pollers saw the final epoch %d within 10 s", caughtUp, pollers, final)
			break
		}
		runtime.Gosched()
	}
	close(done)
	pollWg.Wait()
	if t.Failed() {
		return
	}

	total := 0
	for p := 0; p < pollers; p++ {
		total += len(obs[p])
		last := 0
		for _, o := range obs[p] {
			idx, ok := prefixes[o.key]
			if !ok {
				t.Fatalf("poller %d observed epoch %d with aggregates %s matching NO acknowledged prefix", p, o.seq, o.key)
			}
			if idx < last {
				t.Fatalf("poller %d: epoch %d shows prefix %d after a lower epoch showed prefix %d", p, o.seq, idx, last)
			}
			last = idx
		}
	}
	if total == 0 {
		t.Fatal("pollers observed no epochs at all")
	}
	t.Logf("pollers matched %d distinct epoch observations against %d prefixes", total, ops+1)
}

// TestEpochViewMultiMutatorInternalConsistency: with many concurrent
// mutators there is no single acknowledged order to fingerprint against,
// but every published epoch must STILL be internally consistent and its
// seq monotonic — a torn export would show up here under -race.
func TestEpochViewMultiMutatorInternalConsistency(t *testing.T) {
	s := newTestServer(t, 64)
	defer s.Shutdown(context.Background())
	ctx := context.Background()
	nodes := s.StatsView().Nodes
	spec := qos.DefaultSpec()

	done := make(chan struct{})
	var pollWg sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollWg.Add(1)
		go func() {
			defer pollWg.Done()
			var lastSeq uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v := s.View()
				checkEpochInternal(t, v)
				if v.Seq < lastSeq {
					t.Errorf("epoch seq went backwards %d -> %d", lastSeq, v.Seq)
					return
				}
				lastSeq = v.Seq
			}
		}()
	}

	var mutWg sync.WaitGroup
	for w := 0; w < 4; w++ {
		mutWg.Add(1)
		go func(w int) {
			defer mutWg.Done()
			src := rng.New(uint64(500 + w))
			var mine []channel.ConnID
			for i := 0; i < 80; i++ {
				if len(mine) > 0 && src.Float64() < 0.4 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if _, err := s.Terminate(ctx, id); err != nil && !errors.Is(err, server.ErrNotFound) {
						t.Errorf("terminate: %v", err)
						return
					}
					continue
				}
				a, b := src.Intn(nodes), src.Intn(nodes)
				if a == b {
					b = (b + 1) % nodes
				}
				rep, err := s.Establish(ctx, topology.NodeID(a), topology.NodeID(b), spec)
				if err == nil {
					mine = append(mine, rep.Conn.ID)
				} else if !errors.Is(err, manager.ErrRejected) {
					t.Errorf("establish: %v", err)
					return
				}
			}
		}(w)
	}
	mutWg.Wait()
	close(done)
	pollWg.Wait()
}

// TestStatsServedFromEpochDuringSaturatedLane is the acceptance read-path
// proof: with the consuming lane saturated by slow commands, GET /v1/stats
// answers immediately from the published epoch — without queueing a
// command — and reports the backlog it did not have to wait behind.
func TestStatsServedFromEpochDuringSaturatedLane(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const execDelay = 30 * time.Millisecond
	s, err := server.New(g, manager.Config{Capacity: 10000}, server.Options{
		QueueDepth: 32, ExecDelay: execDelay,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()

	// Saturate the consuming lane: each no-op command still pays ExecDelay
	// in the loop, so the backlog drains at ~33 commands/second.
	const backlog = 16
	for i := 0; i < backlog; i++ {
		if err := s.SubmitConsuming(context.Background(), func(*manager.Manager) {}); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(start)
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// A queued read would wait behind the remaining backlog (hundreds of
	// ms). The epoch read must come back in a fraction of that.
	if budget := execDelay * backlog / 4; elapsed > budget {
		t.Fatalf("GET /v1/stats took %v with a saturated lane (budget %v) — did it queue a command?", elapsed, budget)
	}
	if st.Commands.Snapshots != 0 {
		t.Fatalf("stats read queued %d snapshot command(s); epoch reads must queue none", st.Commands.Snapshots)
	}
	if st.Epoch == nil || st.Epoch.Seq == 0 {
		t.Fatal("stats response carries no epoch staleness block")
	}
	if depth := st.Lanes["consuming"].Depth; depth == 0 {
		t.Fatalf("expected a visible consuming backlog in the stats response; lane depth 0 after %v", elapsed)
	}
	// /metrics rides the same path.
	mStart := time.Now()
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mResp.Body.Close()
	if elapsed := time.Since(mStart); elapsed > execDelay*backlog/4 {
		t.Fatalf("GET /metrics took %v with a saturated lane", elapsed)
	}
}

// TestEpochReadYourWrites pins the publish contract: an acknowledged
// mutation is visible in its caller's very next StatsView — sequentially,
// and with a backlog still queued behind it.
func TestEpochReadYourWrites(t *testing.T) {
	s := newTestServer(t, 16)
	defer s.Shutdown(context.Background())
	ctx := context.Background()
	if _, err := s.Establish(ctx, 0, 1, qos.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	st := s.StatsView()
	if st.Requests != 1 || st.Alive != 1 {
		t.Fatalf("read-your-writes broken: requests %d alive %d after acknowledged establish", st.Requests, st.Alive)
	}
	if st.Epoch == nil || st.Epoch.Seq < 2 {
		t.Fatalf("expected a post-mutation epoch, got %+v", st.Epoch)
	}

	// Backlog: hold the loop, queue an establish and a second blocker behind
	// it, let the establish through. It is acknowledged while the consuming
	// lane is still non-empty.
	gate, gateRunning, behind := make(chan struct{}), make(chan struct{}), make(chan struct{})
	submit := func(fn func(*manager.Manager)) {
		t.Helper()
		if err := s.SubmitConsuming(ctx, fn); err != nil {
			t.Fatal(err)
		}
	}
	submit(func(*manager.Manager) { close(gateRunning); <-gate })
	// Until the loop has taken the gate off the queue, a non-zero depth
	// below could be the gate itself, and the second blocker would queue
	// ahead of the establish.
	<-gateRunning
	acked := make(chan error, 1)
	go func() {
		_, err := s.Establish(ctx, 2, 3, qos.DefaultSpec())
		acked <- err
	}()
	for s.QueueDepth() == 0 { // the gate is executing; the establish is what queues
		time.Sleep(100 * time.Microsecond)
	}
	submit(func(*manager.Manager) { <-behind })
	close(gate)
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	st = s.StatsView()
	close(behind)
	if st.Requests != 2 || st.Alive != 2 {
		t.Fatalf("read-your-writes broken under a backlog: requests %d alive %d after the second acknowledged establish", st.Requests, st.Alive)
	}
}

// TestPublishCostIndependentOfPopulation: an epoch carries aggregates the
// manager keeps incrementally, so publishing one allocates the same bytes
// over 2 000 connections as over 20.
func TestPublishCostIndependentOfPopulation(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bytesPerPublish := func(conns int) uint64 {
		s, err := server.New(g, manager.Config{Capacity: 1_000_000}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(ctx)
		establishN(t, s, conns)
		if st := s.StatsView(); st.Alive != conns {
			t.Fatalf("%d alive, want %d", st.Alive, conns)
		}
		// Other goroutines of the test binary allocate inside any window and
		// only ever add: the quietest of a few windows is the publish's own.
		const windows, publishes = 5, 64
		quietest := ^uint64(0)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < publishes; i++ {
				if err := s.PublishEpoch(ctx); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			quietest = min(quietest, (after.TotalAlloc-before.TotalAlloc)/publishes)
		}
		return quietest
	}
	if small, large := bytesPerPublish(20), bytesPerPublish(2000); large > small+16 || small > large+16 {
		t.Fatalf("a publish allocates %d bytes over 20 connections and %d over 2000", small, large)
	}
}

// TestServerGroupCommitAckDurability: on a group-commit journaled server,
// every acknowledged mutation's record is durable by the time the caller
// sees the ack — SyncedSeq always covers the full acknowledged history.
func TestServerGroupCommitAckDurability(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir, journal.Options{GroupCommit: true, GroupCommitMaxWait: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := manager.Config{Capacity: 10000}
	s, err := server.New(g, cfg, server.Options{QueueDepth: 64, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const workers, perWorker = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(7000 + w))
			for i := 0; i < perWorker; i++ {
				a, b := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
				if a == b {
					b = (b + 1) % g.NumNodes()
				}
				_, err := s.Establish(ctx, topology.NodeID(a), topology.NodeID(b), qos.DefaultSpec())
				if err != nil && !errors.Is(err, manager.ErrRejected) {
					errs <- fmt.Errorf("establish: %w", err)
					return
				}
				// The ack we just received must already be durable.
				if last, synced := jnl.LastSeq(), jnl.SyncedSeq(); synced == 0 || synced > last {
					errs <- fmt.Errorf("nonsensical durability ledger: last %d synced %d", last, synced)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent now: everything acknowledged, so everything is durable.
	if last, synced := jnl.LastSeq(), jnl.SyncedSeq(); synced != last {
		t.Fatalf("after quiescence SyncedSeq %d != LastSeq %d", synced, last)
	}
	if last := jnl.LastSeq(); last != workers*perWorker {
		t.Fatalf("journaled %d events, want %d", jnl.LastSeq(), workers*perWorker)
	}
	st := s.StatsView()
	if !st.GroupCommit || st.JournalSynced != st.JournalSeq {
		t.Fatalf("stats durability block wrong: %+v", st)
	}

	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	// The acknowledged history replays audit-clean.
	jnl2, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if rec.LastSeq != workers*perWorker {
		t.Fatalf("reopen recovered seq %d, want %d", rec.LastSeq, workers*perWorker)
	}
	if _, _, err := server.Rebuild(g, cfg, rec); err != nil {
		t.Fatalf("rebuild of acknowledged history: %v", err)
	}
}
