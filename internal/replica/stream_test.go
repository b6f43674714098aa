package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
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

// journalModes are the two ways a record on a replicated plane becomes
// durable: the committer's batch fsync (the daemon) and the inline fsync
// (every other test in this package). A parked poll must wake on both.
var journalModes = []struct {
	name string
	opt  journal.Options
}{
	{"group-commit", journal.Options{GroupCommit: true}},
	{"fsync-inline", journal.Options{FsyncEvery: 1}},
}

func bootNodeWith(t testing.TB, g *topology.Graph, opt journal.Options, primaryURL string, cfg replica.Config) *testNode {
	t.Helper()
	jnl, rec, err := journal.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return bootNodeOnJournal(t, g, jnl, rec, primaryURL, cfg)
}

// streamReply is the wire shape of one /v1/replica/stream answer.
type streamReply struct {
	Term       uint64 `json:"term"`
	DurableSeq uint64 `json:"durable_seq"`
	Frames     []byte `json:"frames"`
}

// poll issues one stream poll by hand, the way a standby at from-1 would.
func poll(t testing.TB, tn *testNode, from uint64, waitMs int) (streamReply, time.Time) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/replica/stream?from=%d&wait=%d", tn.http.URL, from, waitMs)
	if crc, ok, err := tn.jnl.FrameCRC(from - 1); err != nil {
		t.Error(err)
	} else if ok {
		url += fmt.Sprintf("&prev_crc=%d", crc)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return streamReply{}, time.Now()
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	answered := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("stream poll: status %d, err %v, body %s", resp.StatusCode, err, body)
	}
	var env streamReply
	if err := json.Unmarshal(body, &env); err != nil {
		t.Errorf("stream envelope: %v", err)
	}
	return env, answered
}

// TestParkedPollWakesOnDurable: a poll parked with a 2 s window answers
// within 50 ms of the record becoming durable — it waits on the journal's
// broadcast, not on a timer — and neither the park, the history probe nor
// the batch read walks the segment files.
func TestParkedPollWakesOnDurable(t *testing.T) {
	for _, m := range journalModes {
		t.Run(m.name, func(t *testing.T) {
			primary := bootNodeWith(t, testGraph(t), m.opt, "", replica.Config{})
			defer primary.close(t)
			establishSome(t, primary.srv, 5) // unpaired: acknowledged asynchronously
			from := primary.jnl.LastSeq() + 1
			walks := primary.jnl.DiskWalksForTesting()

			type answer struct {
				env streamReply
				at  time.Time
			}
			answered := make(chan answer, 1)
			go func() {
				env, at := poll(t, primary, from, 2000)
				answered <- answer{env, at}
			}()
			// The poll is recorded just before it parks.
			waitFor(t, 3*time.Second, "the poll to reach the primary", func() bool {
				return primary.node.StatsBlock().Followers == 1
			})
			select {
			case a := <-answered:
				t.Fatalf("poll answered with nothing to serve: %+v", a.env)
			case <-time.After(20 * time.Millisecond):
			}

			// Behind the server's back, so that no acknowledgment waits on this
			// hand-rolled standby: the journal alone must wake the poll.
			if _, err := primary.jnl.Append(journal.Event{Kind: journal.KindFailLink, Link: 1}); err != nil {
				t.Fatal(err)
			}
			durableAt := time.Now()
			var a answer
			select {
			case a = <-answered:
			case <-time.After(time.Second):
				t.Fatal("parked poll still parked 1 s after the record became durable")
			}
			if lag := a.at.Sub(durableAt); lag > 50*time.Millisecond {
				t.Errorf("poll answered %s after the record became durable, want <= 50ms", lag)
			}
			evs, err := journal.DecodeFrames(a.env.Frames)
			if err != nil || len(evs) != 1 || evs[0].Seq != from || a.env.DurableSeq != from {
				t.Fatalf("poll answered %d records (err %v), durable_seq %d; want exactly record %d", len(evs), err, a.env.DurableSeq, from)
			}
			if got := primary.jnl.DiskWalksForTesting(); got != walks {
				t.Errorf("the poll walked the segment files %d times, want 0", got-walks)
			}
		})
	}
}

// TestIdlePollIsTheLeaseHeartbeat: with nothing to ship a poll still answers
// — an empty envelope, at its deadline — and the polls of an idle standby
// keep the primary's lease alive.
func TestIdlePollIsTheLeaseHeartbeat(t *testing.T) {
	const lease = 400 * time.Millisecond
	g := testGraph(t)
	primary := bootNode(t, g, "", replica.Config{Lease: lease})
	defer primary.close(t)
	establishSome(t, primary.srv, 3)
	tip := primary.jnl.LastSeq()

	start := time.Now()
	env, at := poll(t, primary, tip+1, 100)
	if took := at.Sub(start); took < 90*time.Millisecond || took > time.Second {
		t.Errorf("idle poll with wait=100 answered after %s", took)
	}
	if len(env.Frames) != 0 || env.DurableSeq != tip {
		t.Errorf("idle poll answered %d frame bytes, durable_seq %d; want none, %d", len(env.Frames), env.DurableSeq, tip)
	}
	if st := primary.node.StatsBlock(); !st.LeaseEnabled || st.LeaseLost || st.ReplicatedSeq != tip {
		t.Errorf("after the poll: %+v; want the lease held and seq %d confirmed", st, tip)
	}

	standby := bootNode(t, g, primary.http.URL, replica.Config{Lease: lease})
	defer standby.close(t)
	go func() { _ = standby.node.Run(context.Background()) }()
	waitFor(t, 3*time.Second, "the standby's polls to hold the lease", func() bool {
		return standby.node.StatsBlock().AppliedSeq == tip && !primary.node.LeaseLost()
	})
	for end := time.Now().Add(4 * lease); time.Now().Before(end); time.Sleep(lease / 10) {
		if primary.node.LeaseLost() {
			t.Fatal("an idle pair lost its lease: the deadline heartbeat is gone")
		}
	}
	if _, err := primary.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec()); err != nil && !errors.Is(err, manager.ErrRejected) {
		t.Fatalf("establish on an idle leased pair: %v", err)
	}
}

// mutate runs pairs establish+terminate round trips against tn's HTTP front
// and returns their client-side durations in milliseconds.
func mutate(t testing.TB, tn *testNode, pairs int, src *rng.Source) []float64 {
	t.Helper()
	nodes := tn.srv.StatsView().Nodes
	rtts := make([]float64, 0, 2*pairs)
	timed := func(method, url string, body []byte) []byte {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rtts = append(rtts, float64(time.Since(start))/float64(time.Millisecond))
		if resp.StatusCode/100 != 2 {
			return nil
		}
		return out
	}
	for made := 0; made < pairs; {
		a, z := src.Intn(nodes), src.Intn(nodes)
		if a == z {
			continue
		}
		body, _ := json.Marshal(server.EstablishRequest{Src: a, Dst: z})
		out := timed(http.MethodPost, tn.http.URL+"/v1/connections", body)
		if out == nil {
			rtts = rtts[:len(rtts)-1] // a rejection journals nothing and waits for nobody
			continue
		}
		var est server.EstablishResponse
		if err := json.Unmarshal(out, &est); err != nil {
			t.Fatal(err)
		}
		if timed(http.MethodDelete, fmt.Sprintf("%s/v1/connections/%d", tn.http.URL, est.ID), nil) == nil {
			t.Fatalf("terminate %d refused", est.ID)
		}
		made++
	}
	return rtts
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// TestAckWaitInsideMatchesOutside: what the daemon reports about itself and
// what a client can measure from outside agree. The same primary serves the
// same mutations over HTTP first alone, then with a standby attached; the
// difference of the two client-side medians is the price of the replicated
// acknowledgment, and /v1/stats' replica.ack_wait_ms_p50 — measured inside
// WaitReplicated — must name the same price.
//
// Tolerance: half the larger of the two plus 0.25 ms. The outside figure
// also carries the standby's competition for the CPU, which the inside one
// does not see, and both are medians of a few hundred samples on a shared
// machine; a poll timer back on the path (+5 ms on both) still passes, a
// quantile fed the wrong interval or unit does not.
func TestAckWaitInsideMatchesOutside(t *testing.T) {
	const pairs = 150
	g := testGraph(t)
	opt := journal.Options{GroupCommit: true}
	primary := bootNodeWith(t, g, opt, "", replica.Config{})
	defer primary.close(t)
	src := rng.New(11)

	readStats := func() server.Stats {
		resp, err := http.Get(primary.http.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st server.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	mutate(t, primary, 20, src) // warm connections, pools and the journal
	alone := median(mutate(t, primary, pairs, src))
	if r := readStats().Replica; r == nil || r.AckWaitMsP50 != 0 || r.AckWaitMsP99 != 0 {
		t.Fatalf("unpaired primary reports an ack wait: %+v", r)
	}

	standby := bootNodeWith(t, g, opt, primary.http.URL, replica.Config{})
	defer standby.close(t)
	go func() { _ = standby.node.Run(context.Background()) }()
	waitFor(t, 3*time.Second, "the standby's first poll", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})
	mutate(t, primary, 20, src)
	paired := median(mutate(t, primary, pairs, src))

	r := readStats().Replica
	if r == nil || r.AckWaitMsP50 <= 0 || r.AckWaitMsP99 < r.AckWaitMsP50 {
		t.Fatalf("paired primary's replica block: %+v", r)
	}
	inside, outside := r.AckWaitMsP50, paired-alone
	tolerance := 0.5*max(inside, outside) + 0.25
	t.Logf("client round trip p50 %.3f ms alone, %.3f ms paired: outside %.3f ms; daemon ack_wait_ms_p50 %.3f (p99 %.3f); tolerance %.3f",
		alone, paired, outside, inside, r.AckWaitMsP99, tolerance)
	if d := inside - outside; d > tolerance || d < -tolerance {
		t.Errorf("daemon says an ack waits %.3f ms for the standby, clients measure %.3f ms: apart by more than %.3f", inside, outside, tolerance)
	}

	var metrics bytes.Buffer
	server.WriteMetrics(&metrics, readStats())
	for _, q := range []string{`drqos_replica_ack_wait_seconds{quantile="0.5"} `, `drqos_replica_ack_wait_seconds{quantile="0.99"} `} {
		if !bytes.Contains(metrics.Bytes(), []byte(q)) {
			t.Errorf("/metrics lacks %s", q)
		}
	}
}

// TestConfirmedAckIsNotHeld: a confirmed acknowledgment leaves the moment
// the standby's poll confirms it. A primary nobody polls never waits; every
// acknowledged mutation is confirmed first; and once the standby has
// confirmed the tip, the quickest of 50 waits for it returns in under
// 0.5 ms — a hold that a clock ends puts every one of them past it. The
// quickest, not the median, because a loaded host slows most waits but
// rarely all of them. The bound is on the wait, not on the whole mutation:
// under the race detector a paired mutation's own work takes about 0.8 ms
// on a 2-vCPU VM.
func TestConfirmedAckIsNotHeld(t *testing.T) {
	const bound = 500 * time.Microsecond
	g, ctx := testGraph(t), context.Background()
	opt := journal.Options{GroupCommit: true}
	primary := bootNodeWith(t, g, opt, "", replica.Config{})
	defer primary.close(t)
	quickestWait := func() time.Duration {
		quickest := time.Hour
		for i := 0; i < 50; i++ {
			start := time.Now()
			if err := primary.node.WaitReplicated(ctx, primary.jnl.LastSeq()); err != nil {
				t.Fatal(err)
			}
			quickest = min(quickest, time.Since(start))
		}
		return quickest
	}

	establishSome(t, primary.srv, 3)
	if quickest := quickestWait(); quickest >= bound {
		t.Errorf("an unpaired primary's quickest acknowledgment took %s: it waits for nobody", quickest)
	}

	standby := bootNodeWith(t, g, opt, primary.http.URL, replica.Config{})
	defer standby.close(t)
	go func() { _ = standby.node.Run(ctx) }()
	waitFor(t, 3*time.Second, "the standby's first poll", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})
	// Whole mutations from here on; the acknowledgment wait is their last leg.
	var waits []time.Duration
	timed := func(mutation func() error) error {
		start := time.Now()
		err := mutation()
		if took := time.Since(start); err == nil {
			if st := primary.node.StatsBlock(); st.ReplicatedSeq < primary.jnl.LastSeq() {
				t.Fatalf("mutation %d acknowledged without the standby's confirmation: replicated %d, tip %d",
					len(waits), st.ReplicatedSeq, primary.jnl.LastSeq())
			}
			waits = append(waits, took)
		}
		return err
	}
	src := rng.New(5)
	for len(waits) < 100 {
		a, z := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
		if a == z {
			continue
		}
		var rep *manager.ArrivalReport
		err := timed(func() (err error) {
			rep, err = primary.srv.Establish(ctx, topology.NodeID(a), topology.NodeID(z), qos.DefaultSpec())
			return err
		})
		if errors.Is(err, manager.ErrRejected) {
			continue // journals nothing and waits for nobody
		}
		if err == nil {
			err = timed(func() error { _, err := primary.srv.Terminate(ctx, rep.Conn.ID); return err })
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	quickest := quickestWait()
	t.Logf("%d paired mutations: quickest %s, slowest %s; quickest confirmed wait %s",
		len(waits), slices.Min(waits), slices.Max(waits), quickest)
	if quickest >= bound {
		t.Errorf("the quickest of 50 waits for a confirmed seq took %s, want under %s: something holds the acknowledgment",
			quickest, bound)
	}
}

// BenchmarkReplicatedEstablish is one establish+terminate pair on a primary
// whose every acknowledgment waits for a warm standby, both in this process
// and talking over loopback HTTP, journals under group commit — the
// replicated-ack path end to end without a client-side HTTP hop.
func BenchmarkReplicatedEstablish(b *testing.B) {
	g, ctx := testGraph(b), context.Background()
	opt := journal.Options{FsyncEvery: 1, GroupCommit: true}
	primary := bootNodeWith(b, g, opt, "", replica.Config{})
	defer primary.close(b)
	standby := bootNodeWith(b, g, opt, primary.http.URL, replica.Config{})
	defer standby.close(b)
	go func() { _ = standby.node.Run(ctx) }()
	waitFor(b, 3*time.Second, "the standby's first poll", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})
	src := rng.New(1)
	pair := func() {
		a, z := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
		if a == z {
			z = (z + 1) % g.NumNodes()
		}
		rep, err := primary.srv.Establish(ctx, topology.NodeID(a), topology.NodeID(z), qos.DefaultSpec())
		if errors.Is(err, manager.ErrRejected) {
			return
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := primary.srv.Terminate(ctx, rep.Conn.ID); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		pair()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
	b.ReportMetric(1000*primary.node.StatsBlock().AckWaitMsP50, "ack_wait_us_p50")
}
