package replica_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"drqos/internal/manager"
	"drqos/internal/netchaos"
	"drqos/internal/qos"
	"drqos/internal/replica"
	"drqos/internal/server"
)

// leasePair boots a lease-fenced primary and a standby whose client routes
// through a netchaos transport, and waits until the standby's stream grants
// the lease.
func leasePair(t *testing.T, net *netchaos.Network, lease, syncTO, failover time.Duration) (primary, standby *testNode, runDone chan error) {
	t.Helper()
	g := testGraph(t)
	primary = bootNode(t, g, "", replica.Config{
		PollWait: 20 * time.Millisecond, Lease: lease, SyncTimeout: syncTO,
	})
	t.Cleanup(func() { primary.close(t) })
	standby = bootNode(t, g, primary.http.URL, replica.Config{
		PollWait: 20 * time.Millisecond, Lease: lease, SyncTimeout: syncTO,
		FailoverTimeout: failover,
		Transport:       net.Transport("standby", "primary", nil),
	})
	t.Cleanup(func() { standby.close(t) })
	runDone = make(chan error, 1)
	go func() { runDone <- standby.node.Run(context.Background()) }()
	waitFor(t, 3*time.Second, "standby's stream to grant the lease", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})
	return primary, standby, runDone
}

// TestLeaseFenceSymmetricPartition is the core split-brain guarantee: cut
// both directions of the replication link and the primary must refuse
// acknowledgments within one lease interval — it fences rather than
// falling back to async and acking writes the standby will never see.
func TestLeaseFenceSymmetricPartition(t *testing.T) {
	const lease = 200 * time.Millisecond
	net := netchaos.New(1)
	primary, _, _ := leasePair(t, net, lease, 2*time.Second, 0)
	establishSome(t, primary.srv, 5)

	net.SetRule("standby", "primary", netchaos.Rule{DropRequest: 1})
	net.SetRule("primary", "standby", netchaos.Rule{DropRequest: 1})
	cut := time.Now()
	_, err := primary.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec())
	fenced := time.Since(cut)
	if !errors.Is(err, server.ErrFenced) {
		t.Fatalf("partitioned primary Establish err = %v, want ErrFenced", err)
	}
	// "Within one lease interval": the lease was last renewed at most one
	// poll before the cut, so the fence lands by cut+lease plus the waiter's
	// wake-up granularity (lease/4).
	if fenced > lease+lease/2 {
		t.Fatalf("fence took %s after the cut, want within one %s lease interval", fenced, lease)
	}
	if !primary.node.LeaseLost() {
		t.Fatal("LeaseLost() = false on a partitioned primary")
	}
	st := primary.node.StatsBlock()
	if !st.LeaseEnabled || !st.LeaseLost {
		t.Fatalf("stats lease_enabled=%v lease_lost=%v, want true/true", st.LeaseEnabled, st.LeaseLost)
	}

	// The HTTP front sheds mutations instead of queueing them behind the
	// fence, and /readyz goes not-ready.
	resp, err := http.Post(primary.http.URL+"/v1/connections", "application/json",
		strings.NewReader(`{"src":0,"dst":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced mutation answered %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fenced 503 carries no Retry-After")
	}
	resp, err = http.Get(primary.http.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced /readyz answered %d, want 503", resp.StatusCode)
	}

	// Heal: the standby's stream resumes and the lease is regained.
	net.Heal()
	waitFor(t, 3*time.Second, "lease to be regained after heal", func() bool {
		return !primary.node.LeaseLost()
	})
	if _, err := primary.srv.Establish(context.Background(), 0, 2, qos.DefaultSpec()); err != nil && !errors.Is(err, manager.ErrRejected) {
		t.Fatalf("healed primary Establish err = %v", err)
	}
}

// TestLeaseFenceAsymmetricRequestDrop cuts only the standby→primary
// request direction: the primary hears nothing (lease fence within one
// interval, as in the symmetric case) while the standby times out and
// promotes. The fence must land before the new primary's first ack —
// at most one side ever acknowledges.
func TestLeaseFenceAsymmetricRequestDrop(t *testing.T) {
	const lease = 150 * time.Millisecond
	net := netchaos.New(2)
	primary, standby, runDone := leasePair(t, net, lease, 400*time.Millisecond, 400*time.Millisecond)
	establishSome(t, primary.srv, 5)

	net.SetRule("standby", "primary", netchaos.Rule{DropRequest: 1})
	cut := time.Now()
	if _, err := primary.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec()); !errors.Is(err, server.ErrFenced) {
		t.Fatalf("request-dropped primary Establish err = %v, want ErrFenced", err)
	}
	tFence := time.Now()
	if d := tFence.Sub(cut); d > lease+lease/2 {
		t.Fatalf("fence took %s, want within one %s lease interval", d, lease)
	}

	waitFor(t, 3*time.Second, "standby to promote", func() bool {
		return standby.srv.Role() == "primary"
	})
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v after promotion", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit after promotion")
	}
	if _, err := standby.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec()); err != nil && !errors.Is(err, manager.ErrRejected) {
		t.Fatalf("promoted standby Establish err = %v", err)
	}
	if !time.Now().After(tFence) {
		t.Fatal("new primary acked before the old one fenced")
	}
	// The old primary stays fenced even after the rules lift: nobody
	// streams from it anymore.
	net.Heal()
	time.Sleep(2 * lease)
	if _, err := primary.srv.Establish(context.Background(), 0, 2, qos.DefaultSpec()); !errors.Is(err, server.ErrFenced) {
		t.Fatalf("abandoned ex-primary Establish err = %v, want ErrFenced", err)
	}
}

// TestLeaseFenceAsymmetricResponseDrop cuts only the primary→standby
// response direction: the open stream stalls both ways, but every stream
// the standby re-opens still arrives and renews the lease, so the lease
// alone cannot be relied on to fence — the sync timeout must, by refusing
// the legacy fallback-to-async. The standby, hearing nothing, promotes
// after staying off the stream long enough for the primary's lease to
// lapse.
func TestLeaseFenceAsymmetricResponseDrop(t *testing.T) {
	const (
		lease  = 150 * time.Millisecond
		syncTO = 300 * time.Millisecond
	)
	net := netchaos.New(3)
	primary, standby, runDone := leasePair(t, net, lease, syncTO, 400*time.Millisecond)
	establishSome(t, primary.srv, 5)

	net.SetRule("standby", "primary", netchaos.Rule{DropResponse: 1})
	// A push already read off the wire before the cut can still be
	// applied and acknowledged — that ack is safe, the standby really has
	// the record. Let those drain before measuring the fence.
	time.Sleep(60 * time.Millisecond)
	cut := time.Now()
	_, err := primary.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec())
	if !errors.Is(err, server.ErrFenced) {
		t.Fatalf("response-dropped primary Establish err = %v, want ErrFenced (async fallback must be closed)", err)
	}
	if d := time.Since(cut); d > syncTO+250*time.Millisecond {
		t.Fatalf("sync-timeout fence took %s, bound %s", d, syncTO)
	}

	waitFor(t, 5*time.Second, "standby to promote", func() bool {
		return standby.srv.Role() == "primary"
	})
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v after promotion", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit after promotion")
	}
	// Promotion only happened after the quiesce, so by now the old
	// primary's lease has lapsed (its standby is gone): both the sync
	// timeout and the lease fence it.
	waitFor(t, 2*time.Second, "old primary's lease to lapse", func() bool {
		return primary.node.LeaseLost()
	})
	if _, err := standby.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec()); err != nil && !errors.Is(err, manager.ErrRejected) {
		t.Fatalf("promoted standby Establish err = %v", err)
	}
}

// TestPromoteInterlock exercises POST /v1/admin/promote: refused with 409
// while the primary is demonstrably alive, allowed once it is gone, and a
// no-op 409 on a node that is already primary.
func TestPromoteInterlock(t *testing.T) {
	g := testGraph(t)
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	follower := bootNode(t, g, primary.http.URL, replica.Config{
		PollWait: 20 * time.Millisecond,
		// A lease (but no FailoverTimeout) gives the interlock its
		// liveness window without racing an automatic promotion.
		Lease: 100 * time.Millisecond,
	})
	defer follower.close(t)
	go func() { _ = follower.node.Run(context.Background()) }()
	establishSome(t, primary.srv, 3)
	waitFor(t, 3*time.Second, "follower to start streaming", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})

	promote := func(url, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(url+"/v1/admin/promote", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	// Interlock: the primary is alive (we just fetched from it), so a
	// plain promote refuses.
	code, out := promote(follower.http.URL, `{}`)
	if code != http.StatusConflict {
		t.Fatalf("promote with live primary answered %d (%v), want 409", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "force") {
		t.Fatalf("interlock error does not mention the force escape hatch: %v", out)
	}

	// Promoting a node that is already primary is a 409 conflict too.
	if code, out := promote(primary.http.URL, `{"force":true}`); code != http.StatusConflict {
		t.Fatalf("promote on the primary answered %d (%v), want 409", code, out)
	}

	// Kill the primary, let the liveness window lapse, and the same plain
	// promote succeeds.
	primary.close(t)
	waitFor(t, 5*time.Second, "manual promote to succeed after primary death", func() bool {
		code, _ := promote(follower.http.URL, `{}`)
		return code == http.StatusOK
	})
	if follower.srv.Role() != "primary" || follower.srv.Term() != 1 {
		t.Fatalf("after manual promote: role=%s term=%d, want primary/1", follower.srv.Role(), follower.srv.Term())
	}
	if _, err := follower.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec()); err != nil && !errors.Is(err, manager.ErrRejected) {
		t.Fatalf("manually promoted node refuses mutations: %v", err)
	}
}

// TestPromotedStandbyStopsAcknowledging: a standby promoted by hand while
// its stream is open (the interlock overridden) acknowledges nothing more —
// its request body stops, and the old primary's next push carries a term
// below the new one and ends the stream — so the primary it left loses its
// lease within one lease interval instead of being kept alive by the new
// primary's heartbeat.
func TestPromotedStandbyStopsAcknowledging(t *testing.T) {
	const lease = 200 * time.Millisecond
	g := testGraph(t)
	primary := bootNode(t, g, "", replica.Config{Lease: lease})
	defer primary.close(t)
	standby := bootNode(t, g, primary.http.URL, replica.Config{Lease: lease})
	defer standby.close(t)
	go func() { _ = standby.node.Run(context.Background()) }()
	establishSome(t, primary.srv, 3)
	waitFor(t, 3*time.Second, "the standby to hold the lease", func() bool {
		return primary.node.StatsBlock().Followers == 1 && !primary.node.LeaseLost()
	})

	resp, err := http.Post(standby.http.URL+"/v1/admin/promote", "application/json", strings.NewReader(`{"force":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || standby.srv.Role() != "primary" {
		t.Fatalf("forced promote answered %d, role %s", resp.StatusCode, standby.srv.Role())
	}
	promoted := time.Now()
	waitFor(t, 3*time.Second, "the abandoned primary's lease to lapse", func() bool {
		return primary.node.LeaseLost()
	})
	if d := time.Since(promoted); d > lease+lease/2+100*time.Millisecond {
		t.Errorf("the abandoned primary kept its lease %s after the promotion, want about one %s lease", d, lease)
	}
	time.Sleep(2 * lease)
	if !primary.node.LeaseLost() {
		t.Fatal("something renewed the abandoned primary's lease after the promotion")
	}
}
