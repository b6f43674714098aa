package replica_test

import (
	"context"
	"encoding/json"
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
	"drqos/internal/replica"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

func testGraph(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testNode is one in-process cluster member: replication node, its server
// and journal, and its HTTP front.
type testNode struct {
	srv  *server.Server
	jnl  *journal.Journal
	dir  string
	node *replica.Node
	http *httptest.Server
}

func (tn *testNode) close(t testing.TB) {
	t.Helper()
	tn.node.Stop()
	tn.http.Close()
	_ = tn.srv.Shutdown(context.Background())
	_ = tn.jnl.Close()
}

// bootNode builds a cluster member on a fresh directory. primaryURL=="" boots
// a primary; otherwise a follower of that URL.
func bootNode(t testing.TB, g *topology.Graph, primaryURL string, cfg replica.Config) *testNode {
	t.Helper()
	return bootNodeAt(t, g, t.TempDir(), journal.Options{FsyncEvery: 1}, primaryURL, cfg, server.Options{})
}

// bootNodeAt builds a member from dir through replica.Open: a fresh
// directory, or one a member wrote (the rejoin path). Snapshots are manual
// unless opt sets a cadence: the stream tests want full journal replay.
func bootNodeAt(t testing.TB, g *topology.Graph, dir string, jopt journal.Options, primaryURL string, cfg replica.Config, opt server.Options) *testNode {
	t.Helper()
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = -1
	}
	cfg.PrimaryURL = primaryURL
	node, api, _, err := replica.Open(g, manager.Config{Capacity: 10000}, dir, jopt, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := node.Server()
	return &testNode{srv: srv, jnl: srv.Journal(), dir: dir, node: node, http: httptest.NewServer(api)}
}

func establishSome(t *testing.T, s *server.Server, n int) int {
	t.Helper()
	ctx := context.Background()
	nodes := s.StatsView().Nodes
	r := rng.New(7)
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
	return made
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamReplicationLockstep: a follower replays the primary's journal
// into a live manager and lands on a bit-identical state fingerprint.
func TestStreamReplicationLockstep(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	defer primary.close(t)
	follower := bootNode(t, g, primary.http.URL, replica.Config{PollWait: 20 * time.Millisecond})
	defer follower.close(t)
	go func() { _ = follower.node.Run(context.Background()) }()

	establishSome(t, primary.srv, 30)
	if _, err := primary.srv.FailLink(ctx, 0); err != nil && !errors.Is(err, server.ErrConflict) {
		t.Fatal(err)
	}

	tip := primary.jnl.LastSeq()
	waitFor(t, 5*time.Second, "follower to reach primary tip", func() bool {
		return follower.jnl.LastSeq() >= tip
	})

	pfp, err := primary.srv.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ffp, err := follower.srv.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pfp != ffp {
		t.Fatalf("fingerprint divergence: primary %s follower %s", pfp, ffp)
	}
	if follower.srv.Role() != "follower" || primary.srv.Role() != "primary" {
		t.Fatalf("roles: primary=%s follower=%s", primary.srv.Role(), follower.srv.Role())
	}

	// The follower refuses to originate mutations.
	if _, err := follower.srv.Establish(ctx, 0, 1, qos.DefaultSpec()); !errors.Is(err, server.ErrNotPrimary) {
		t.Fatalf("follower Establish err = %v, want ErrNotPrimary", err)
	}

	// The primary's stats report an active follower; the follower's report
	// its primary and applied progress.
	pst, err := primary.srv.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Replica == nil || pst.Replica.Role != "primary" {
		t.Fatalf("primary replica block: %+v", pst.Replica)
	}
	waitFor(t, 3*time.Second, "primary to see an active follower", func() bool {
		st, err := primary.srv.Snapshot(ctx)
		return err == nil && st.Replica.Followers == 1
	})
	fst, err := follower.srv.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fst.Replica == nil || fst.Replica.Role != "follower" || fst.Replica.PrimaryURL != primary.http.URL {
		t.Fatalf("follower replica block: %+v", fst.Replica)
	}
	if fst.Replica.AppliedSeq < tip {
		t.Fatalf("follower applied %d < primary tip %d", fst.Replica.AppliedSeq, tip)
	}
}

// TestSemiSyncAckGating: with an active follower, the primary's mutation
// acknowledgments wait for the follower's acknowledgment to confirm
// replication.
func TestSemiSyncAckGating(t *testing.T) {
	g := testGraph(t)
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	defer primary.close(t)
	follower := bootNode(t, g, primary.http.URL, replica.Config{PollWait: 20 * time.Millisecond})
	defer follower.close(t)
	go func() { _ = follower.node.Run(context.Background()) }()

	// Prime: wait until the follower has opened its stream so the
	// standby registers as active.
	waitFor(t, 3*time.Second, "follower's stream", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})
	establishSome(t, primary.srv, 10)
	// Every acked establish must already be replicated: the ack waited on
	// the follower's confirming acknowledgment (or the sync fallback, which
	// the tight heartbeat makes vanishingly unlikely here). Confirmed seq
	// lagging the journal by more than what is in flight would mean acks
	// outran replication.
	tip := primary.jnl.LastSeq()
	waitFor(t, 2*time.Second, "replication confirmation to reach tip", func() bool {
		return primary.node.StatsBlock().ReplicatedSeq >= tip
	})
}

// TestFailoverPromotion: killing the primary mid-stream promotes the
// follower within its failover timeout, after which it serves mutations
// under a higher journaled term.
func TestFailoverPromotion(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	follower := bootNode(t, g, primary.http.URL, replica.Config{
		PollWait:        20 * time.Millisecond,
		FailoverTimeout: 400 * time.Millisecond,
	})
	defer follower.close(t)
	runDone := make(chan error, 1)
	go func() { runDone <- follower.node.Run(context.Background()) }()

	establishSome(t, primary.srv, 20)
	tip := primary.jnl.LastSeq()
	waitFor(t, 5*time.Second, "follower to catch up before the kill", func() bool {
		return follower.jnl.LastSeq() >= tip
	})

	// Kill the primary.
	primary.http.CloseClientConnections()
	primary.http.Close()
	_ = primary.srv.Shutdown(ctx)
	_ = primary.jnl.Close()

	start := time.Now()
	waitFor(t, 3*time.Second, "follower to promote", func() bool {
		return follower.srv.Role() == "primary"
	})
	if d := time.Since(start); d > 1500*time.Millisecond {
		t.Fatalf("promotion took %s", d)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v after promotion", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit after promotion")
	}
	if follower.srv.Term() != 1 {
		t.Fatalf("promoted term = %d, want 1", follower.srv.Term())
	}
	if follower.srv.StatsView().Replica.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", follower.srv.StatsView().Replica.Promotions)
	}
	// The new primary serves mutations.
	if _, err := follower.srv.Establish(ctx, 0, 1, qos.DefaultSpec()); err != nil && !errors.Is(err, manager.ErrRejected) {
		t.Fatalf("new primary refuses mutations: %v", err)
	}
	// The journaled term survives a restart. The deferred close(t) takes
	// the restarted node.
	follower.close(t)
	*follower = *bootNodeAt(t, g, follower.dir, journal.Options{FsyncEvery: 1}, "", replica.Config{}, server.Options{})
	if follower.srv.Term() != 1 {
		t.Fatalf("restarted term = %d, want 1", follower.srv.Term())
	}
}

// TestStaleTermPollDemotesPrimary: a stream opened with a higher term fences
// the node — it demotes before serving a record, the protocol's defense
// against a resurrected ex-primary serving stale mutations.
func TestStaleTermPollDemotesPrimary(t *testing.T) {
	g := testGraph(t)
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	defer primary.close(t)
	establishSome(t, primary.srv, 3)

	resp, err := http.Post(primary.http.URL+"/v1/replica/stream?from=1&term=7", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream with higher term answered %d: %s", resp.StatusCode, body)
	}
	if !primary.srv.IsFollower() || primary.srv.Term() != 7 {
		t.Fatalf("ex-primary role=%s term=%d after the fencing stream, want follower/7",
			primary.srv.Role(), primary.srv.Term())
	}
	// Fenced: originating mutations now refuse.
	if _, err := primary.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec()); !errors.Is(err, server.ErrNotPrimary) {
		t.Fatalf("fenced ex-primary Establish err = %v, want ErrNotPrimary", err)
	}
}

// TestDivergentFollowerRebootstraps: a follower whose local journal holds a
// record the primary never wrote is detected by the prev_crc probe and
// re-seeded from the primary's snapshot, converging on the primary's
// fingerprint instead of replaying on top of the fork.
func TestDivergentFollowerRebootstraps(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	defer primary.close(t)
	establishSome(t, primary.srv, 10)

	// Build the divergent follower: a standalone primary that wrote its own
	// (different) history, then rejoins as a follower.
	loner := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	establishSome(t, loner.srv, 4)
	// establishSome is deterministic, so the loner's establishes mirror the
	// primary's first four records exactly; a link failure makes the tip a
	// record the primary never wrote.
	if _, err := loner.srv.FailLink(ctx, 0); err != nil && !errors.Is(err, server.ErrConflict) {
		t.Fatal(err)
	}
	loner.close(t)

	follower := bootNodeAt(t, g, loner.dir, journal.Options{FsyncEvery: 1}, primary.http.URL, replica.Config{PollWait: 20 * time.Millisecond}, server.Options{})
	defer follower.close(t)
	if follower.jnl.LastSeq() == 0 {
		t.Fatal("divergent history vanished")
	}
	go func() { _ = follower.node.Run(context.Background()) }()

	tip := primary.jnl.LastSeq()
	pfp, err := primary.srv.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The journal reaches the tip when the snapshot is installed, one step
	// before the reseed swaps the rebuilt manager in — so converging on the
	// primary's fingerprint is part of what is waited for.
	waitFor(t, 5*time.Second, "divergent follower to re-bootstrap and converge on the primary's fingerprint", func() bool {
		st := follower.node.StatsBlock()
		deg, _ := follower.srv.Degraded()
		ffp, err := follower.srv.StateFingerprint(ctx)
		return !st.Diverged && follower.jnl.LastSeq() >= tip && !deg && err == nil && ffp == pfp
	})
	// Bootstrap went through InstallSnapshot: the follower's journal starts
	// at a snapshot, not at seq 1.
	if follower.jnl.SnapshotSeq() == 0 {
		t.Fatal("follower journal has no installed snapshot after re-bootstrap")
	}
}

// TestCompactedStreamBootstraps: a fresh follower joining a primary whose
// history is already compacted into a snapshot bootstraps from the image
// rather than failing on the missing prefix.
func TestCompactedStreamBootstraps(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	defer primary.close(t)
	// More records than the primary's tail ring holds, so that the
	// snapshot's are gone from everywhere but the image.
	establishSome(t, primary.srv, 300)
	// SnapshotNow compacts: WriteSnapshot deletes superseded segments.
	if err := primary.srv.SnapshotNow(ctx); err != nil {
		t.Fatal(err)
	}
	if primary.jnl.SnapshotSeq() == 0 {
		t.Fatal("SnapshotNow left no snapshot")
	}
	establishSome(t, primary.srv, 5)

	follower := bootNode(t, g, primary.http.URL, replica.Config{PollWait: 20 * time.Millisecond})
	defer follower.close(t)
	go func() { _ = follower.node.Run(context.Background()) }()

	tip := primary.jnl.LastSeq()
	waitFor(t, 5*time.Second, "fresh follower to bootstrap past compaction", func() bool {
		return follower.jnl.LastSeq() >= tip
	})
	pfp, _ := primary.srv.StateFingerprint(ctx)
	ffp, _ := follower.srv.StateFingerprint(ctx)
	if pfp != ffp {
		t.Fatalf("fingerprints differ after compacted bootstrap: %s vs %s", pfp, ffp)
	}
	if b := follower.node.StatsBlock().Bootstraps; b != 1 || follower.jnl.SnapshotSeq() == 0 {
		t.Fatalf("follower bootstrapped %d times, snapshot at %d; want once", b, follower.jnl.SnapshotSeq())
	}
}

// TestStreamAcrossSnapshots: a caught-up standby streams across the
// primary's snapshots without a bootstrap. The primary snapshots inside its
// loop right after appending a record, before the standby can have it; the
// record is folded into the image but still in the tail ring, and what the
// ring holds is served.
func TestStreamAcrossSnapshots(t *testing.T) {
	const every = 40
	g := testGraph(t)
	primary := bootNodeAt(t, g, t.TempDir(), journal.Options{GroupCommit: true}, "", replica.Config{PollWait: 20 * time.Millisecond},
		server.Options{SnapshotEvery: every})
	defer primary.close(t)
	standby := bootNodeWith(t, g, journal.Options{GroupCommit: true}, primary.http.URL, replica.Config{PollWait: 20 * time.Millisecond})
	defer standby.close(t)
	go func() { _ = standby.node.Run(context.Background()) }()
	waitFor(t, 3*time.Second, "the standby's stream", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})

	churn(t, primary, 4*every+every/2)
	converged(t, primary, standby)
	if snap := primary.jnl.SnapshotSeq(); snap < 3*every {
		t.Fatalf("the primary snapshotted up to seq %d only, want at least 3 snapshots of %d records", snap, every)
	}
	if b := standby.node.StatsBlock().Bootstraps; b != 0 {
		t.Fatalf("a caught-up standby bootstrapped %d times across the primary's snapshots, want 0", b)
	}
	if standby.jnl.SnapshotSeq() != 0 {
		t.Fatalf("the standby installed a snapshot at seq %d", standby.jnl.SnapshotSeq())
	}
}

// TestFrontHandlerRedirectsMutations: the follower's HTTP front 307s
// mutations to the primary and serves reads itself; /readyz reports role.
func TestFrontHandlerRedirectsMutations(t *testing.T) {
	g := testGraph(t)
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	defer primary.close(t)
	follower := bootNode(t, g, primary.http.URL, replica.Config{PollWait: 20 * time.Millisecond})
	defer follower.close(t)

	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noRedirect.Post(follower.http.URL+"/v1/connections", "application/json",
		strings.NewReader(`{"src":0,"dst":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("mutation on follower answered %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, primary.http.URL) {
		t.Fatalf("redirect location %q does not target primary %q", loc, primary.http.URL)
	}

	// A default client follows the redirect end-to-end.
	resp, err = http.Post(follower.http.URL+"/v1/connections", "application/json",
		strings.NewReader(`{"src":0,"dst":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("redirected establish answered %d: %s", resp.StatusCode, body)
	}

	// Reads are served locally; /readyz carries the role.
	resp, err = http.Get(follower.http.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready["role"] != "follower" {
		t.Fatalf("/readyz role = %v, want follower", ready["role"])
	}
}
