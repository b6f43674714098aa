package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"drqos/internal/manager"
	"drqos/internal/netchaos"
	"drqos/internal/overload"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// TestSuspectedShardFastFail503: once a participant times out a 2PC phase
// it is suspected, and until the suspicion lapses the plane refuses new
// cross establishes through it instantly — over HTTP as a 503 with
// Retry-After, never burning another prepare timeout per request. The
// unresolved abort it left behind drains after the heal.
func TestSuspectedShardFastFail503(t *testing.T) {
	g := tierGraph(t, 7)
	net := netchaos.New(11)
	c := newCoordinator(t, g, shard.Options{
		Shards:         4,
		PrepareTimeout: 50 * time.Millisecond,
		SuspectWindow:  time.Second,
		Invoke: func(ctx context.Context, s int, phase string, call func(context.Context) error) error {
			return net.Do(ctx, "coord", fmt.Sprintf("shard-%d", s), call)
		},
	})
	src, dst := crossPair(g, c.Plan())
	ctx := context.Background()

	// Learn the deterministic participant order, then release the probe.
	var participants []int
	c.SetTestHookAfterPrepare(func(s int, txn uint64) error {
		participants = append(participants, s)
		return nil
	})
	probe, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Terminate(ctx, probe.ID); err != nil {
		t.Fatal(err)
	}
	c.SetTestHookAfterPrepare(nil)
	if len(participants) < 2 {
		t.Fatalf("cross path touched %d shards, want >= 2", len(participants))
	}
	victim := participants[len(participants)-1]
	net.SetRule("coord", fmt.Sprintf("shard-%d", victim), netchaos.Rule{DropRequest: 1})

	// Doomed establish: prepare times out (after retries), presumed abort,
	// the unreachable victim's abort queues for resolution.
	if _, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); err == nil {
		t.Fatal("establish through a partitioned shard succeeded")
	}
	if c.CrossTimeouts() == 0 {
		t.Fatal("no 2PC phase timeout counted")
	}
	if c.PendingResolutions() == 0 {
		t.Fatal("unreachable participant left nothing pending resolution")
	}

	// While suspected: instant 503 over HTTP, with Retry-After.
	srv := httptest.NewServer(shard.NewHandler(c))
	defer srv.Close()
	start := time.Now()
	resp, err := http.Post(srv.URL+"/v1/connections", "application/json",
		strings.NewReader(fmt.Sprintf(`{"src":%d,"dst":%d}`, src, dst)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 25*time.Millisecond {
		t.Fatalf("suspected-shard establish took %s over HTTP, want a fast refusal", elapsed)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("suspected-shard establish answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fast-fail 503 carries no Retry-After")
	}
	if _, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("direct establish during suspicion: %v, want ErrShardUnavailable", err)
	}

	// Heal and outwait the suspicion window (resolution skips suspected
	// shards); the queued abort then lands and the queue drains.
	net.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for c.PendingResolutions() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d transactions still pending after heal", c.PendingResolutions())
		}
		c.ResolvePending(ctx)
		time.Sleep(5 * time.Millisecond)
	}
	if reasons := c.AbortReasons(); reasons["timeout"] == 0 {
		t.Fatalf("abort reasons %v, want a timeout entry", reasons)
	}
	if _, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); err != nil {
		t.Fatalf("post-heal cross establish: %v", err)
	}
	for i := 0; i < c.NumShards(); i++ {
		if err := c.Shard(i).CheckInvariants(ctx); err != nil {
			t.Fatalf("shard %d invariants after heal: %v", i, err)
		}
	}
}

// TestOverloadedShardSheds latches one shard's overload detector with a
// backlog of slow establishes and checks the sharded plane sheds like the
// single plane does: new capacity-consuming work for that shard — an
// intra-shard establish, a link failure — is refused (ErrOverloaded, 503 +
// Retry-After over HTTP) instead of joining the backlog, while its
// terminates and every other shard stay live, in process and over HTTP.
func TestOverloadedShardSheds(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{
		Shards: 2,
		Server: server.Options{
			QueueDepth: 512,
			ExecDelay:  2 * time.Millisecond,
			Overload:   overload.DetectorConfig{Target: time.Millisecond, Interval: 5 * time.Millisecond},
		},
	})
	ctx := context.Background()
	plan := c.Plan()
	// pair[s] is a distinct node pair owned by shard s.
	var pair [2][]topology.NodeID
	for n, s := range plan.NodeShard {
		if len(pair[s]) < 2 {
			pair[s] = append(pair[s], topology.NodeID(n))
		}
	}
	const hot, cold = 0, 1
	kept, err := c.Establish(ctx, pair[hot][0], pair[hot][1], qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	var hotLink topology.LinkID = -1
	for l, s := range plan.LinkShard {
		if s == hot {
			hotLink = topology.LinkID(l)
			break
		}
	}

	// 300 establishes at 2ms each: a 600ms backlog on the hot shard only.
	// They go to the shard's server directly and drop the report: an arrival
	// report points at live connection state, which only a sequential
	// caller may read once the loop has moved on.
	sub := plan.Subs[hot]
	var wg sync.WaitGroup
	for i := 0; i < 300; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Shard(hot).Establish(ctx, sub.LocalNode[pair[hot][0]], sub.LocalNode[pair[hot][1]], qos.DefaultSpec())
			if err != nil && !errors.Is(err, manager.ErrRejected) && !errors.Is(err, server.ErrOverloaded) {
				t.Errorf("flood establish: %v", err)
			}
		}()
	}
	defer wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); !c.Shard(hot).Overloaded(); {
		if time.Now().After(deadline) {
			t.Fatal("hot shard never latched overloaded")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := c.Establish(ctx, pair[hot][0], pair[hot][1], qos.DefaultSpec()); !errors.Is(err, server.ErrOverloaded) {
		t.Errorf("intra-shard establish on the overloaded shard: %v, want ErrOverloaded", err)
	}
	if _, err := c.FailLink(ctx, hotLink); !errors.Is(err, server.ErrOverloaded) {
		t.Errorf("fail-link on the overloaded shard: %v, want ErrOverloaded", err)
	}
	ts := httptest.NewServer(shard.NewHandler(c))
	defer ts.Close()
	post := func(pair []topology.NodeID) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/connections", "application/json",
			strings.NewReader(fmt.Sprintf(`{"src":%d,"dst":%d}`, pair[0], pair[1])))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(pair[hot]); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("HTTP establish on the overloaded shard: %d, Retry-After %q; want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// The front end sheds nothing itself: the other shard's work goes through.
	if resp := post(pair[cold]); resp.StatusCode != http.StatusCreated {
		t.Errorf("HTTP establish on the other shard: %d, want 201 (its lanes are idle)", resp.StatusCode)
	}
	if err := c.Terminate(ctx, kept.ID); err != nil {
		t.Errorf("terminate on the overloaded shard: %v (freeing work must stay live)", err)
	}
	if _, err := c.Establish(ctx, pair[cold][0], pair[cold][1], qos.DefaultSpec()); err != nil {
		t.Errorf("establish on the other shard: %v (its lanes are idle)", err)
	}
	if !c.Shard(hot).Overloaded() {
		t.Error("hot shard's latch cleared before the checks finished: the backlog was too short to prove anything")
	}
}

// TestConcurrentEstablishOneShard: many clients establishing onto ONE shard
// at once, half through the coordinator and half through the HTTP front end.
// Every answer must be detached from live state: the coordinator and both
// handlers read the report's connection (level, backup) after the shard's
// loop has moved on to the next client's establish, whose squeeze rewrites
// the levels of the connections it shares links with. Under -race this
// fails on a report that still points at the live *channel.Conn — and, since
// the coordinator's clients read every element of the report's slices here,
// on a report whose slices are views over the manager's per-event scratch,
// which the next establish overwrites.
func TestConcurrentEstablishOneShard(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{Shards: 4, Manager: manager.Config{Capacity: 2000}})
	ts := httptest.NewServer(shard.NewHandler(c))
	defer ts.Close()

	var owned []topology.NodeID
	for n, s := range c.Plan().NodeShard {
		if s == 0 {
			owned = append(owned, topology.NodeID(n))
		}
	}
	if len(owned) < 2 {
		t.Fatalf("shard 0 owns %d nodes", len(owned))
	}
	const clients, each = 4, 40
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			src := rng.New(uint64(k) + 1)
			for i := 0; i < each; i++ {
				a := owned[src.Intn(len(owned))]
				b := owned[src.Intn(len(owned))]
				if a == b {
					continue
				}
				if k%2 == 0 {
					res, err := c.Establish(context.Background(), a, b, qos.DefaultSpec())
					if errors.Is(err, manager.ErrRejected) {
						continue
					}
					if err != nil {
						t.Errorf("client %d: establish %d→%d: %v", k, a, b, err)
						return
					}
					rep := res.Report
					if conn := rep.Conn; res.AllocatedKbps != conn.Spec.Bandwidth(conn.Level) {
						t.Errorf("client %d: told %v Kb/s at level %d", k, res.AllocatedKbps, conn.Level)
					}
					if !slices.IsSorted(rep.DirectlyChained) || !slices.IsSorted(rep.IndirectlyChained) {
						t.Errorf("client %d: chained populations not in ID order: %v / %v", k, rep.DirectlyChained, rep.IndirectlyChained)
					}
					if last := rep.Changes[len(rep.Changes)-1]; last.ID != rep.Conn.ID || last.To != rep.Conn.Level {
						t.Errorf("client %d: conn %d at level %d, report's last change is %+v", k, rep.Conn.ID, rep.Conn.Level, last)
					}
					for _, ch := range rep.Changes[:len(rep.Changes)-1] {
						if ch.From == ch.To || ch.ID >= rep.Conn.ID {
							t.Errorf("client %d: conn %d reports change %+v", k, rep.Conn.ID, ch)
						}
					}
					continue
				}
				body := fmt.Sprintf(`{"src":%d,"dst":%d}`, a, b)
				resp, err := http.Post(ts.URL+"/v1/connections", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: POST: %v", k, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
					t.Errorf("client %d: POST %d→%d: status %d", k, a, b, resp.StatusCode)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if err := c.Shard(0).CheckInvariants(context.Background()); err != nil {
		t.Fatal(err)
	}
}
