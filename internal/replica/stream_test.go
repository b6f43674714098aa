package replica_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// (every other test in this package). A parked stream must wake on both.
var journalModes = []struct {
	name string
	opt  journal.Options
}{
	{"group-commit", journal.Options{GroupCommit: true}},
	{"fsync-inline", journal.Options{FsyncEvery: 1}},
}

func bootNodeWith(t testing.TB, g *topology.Graph, opt journal.Options, primaryURL string, cfg replica.Config) *testNode {
	t.Helper()
	return bootNodeAt(t, g, t.TempDir(), opt, primaryURL, cfg, server.Options{})
}

// handStream is a standby driven by hand: one stream opened from a chosen
// seq, its pushes collected as they arrive, its acknowledgments written
// only when the test says so.
type handStream struct {
	pushes chan push
	acks   *io.PipeWriter
	cancel context.CancelFunc
}

// push is one stream message and when it was read.
type push struct {
	replica.StreamMessage
	at time.Time
}

// openStream opens a stream on tn from seq from, the way a standby at
// from-1 would, and closes it when the test ends.
func openStream(t testing.TB, tn *testNode, from uint64) *handStream {
	t.Helper()
	url := fmt.Sprintf("%s/v1/replica/stream?from=%d", tn.http.URL, from)
	if crc, ok, err := tn.jnl.FrameCRC(from - 1); err != nil {
		t.Fatal(err)
	} else if ok {
		url += fmt.Sprintf("&prev_crc=%d", crc)
	}
	ctx, cancel := context.WithCancel(context.Background())
	body, acks := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream open: status %d, body %s", resp.StatusCode, msg)
	}
	h := &handStream{pushes: make(chan push, 64), acks: acks, cancel: cancel}
	read := make(chan struct{})
	go func() {
		defer close(read)
		defer close(h.pushes)
		for {
			m, err := replica.ReadStreamMessage(resp.Body)
			if err != nil {
				return
			}
			h.pushes <- push{m, time.Now()}
		}
	}()
	t.Cleanup(func() {
		cancel()
		acks.Close()
		resp.Body.Close()
		<-read
	})
	return h
}

// next returns the next push, failing the test if none comes within.
func (h *handStream) next(t testing.TB, within time.Duration) push {
	t.Helper()
	select {
	case p, ok := <-h.pushes:
		if !ok {
			t.Fatal("the stream ended")
		}
		return p
	case <-time.After(within):
		t.Fatalf("no push within %s", within)
	}
	return push{}
}

// ack acknowledges everything up to seq.
func (h *handStream) ack(t testing.TB, seq uint64) {
	t.Helper()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	if _, err := h.acks.Write(b[:]); err != nil {
		t.Fatal(err)
	}
}

// TestParkedPollWakesOnDurable: a stream parked with a 2 s heartbeat pushes
// within 50 ms of the record becoming durable — it waits on the journal's
// broadcast, not on a timer — and neither the park, the history probe nor
// the batch read walks the segment files.
func TestParkedPollWakesOnDurable(t *testing.T) {
	for _, m := range journalModes {
		t.Run(m.name, func(t *testing.T) {
			primary := bootNodeWith(t, testGraph(t), m.opt, "", replica.Config{PollWait: 2 * time.Second})
			defer primary.close(t)
			establishSome(t, primary.srv, 5) // unpaired: acknowledged asynchronously
			from := primary.jnl.LastSeq() + 1
			walks := primary.jnl.DiskWalksForTesting()

			h := openStream(t, primary, from)
			// The opening is recorded before the stream parks.
			waitFor(t, 3*time.Second, "the stream to reach the primary", func() bool {
				return primary.node.StatsBlock().Followers == 1
			})
			select {
			case p := <-h.pushes:
				t.Fatalf("stream pushed with nothing to serve: %+v", p.StreamMessage)
			case <-time.After(20 * time.Millisecond):
			}

			// Behind the server's back, so that no acknowledgment waits on this
			// hand-driven standby: the journal alone must wake the stream.
			if _, err := primary.jnl.Append(journal.Event{Kind: journal.KindFailLink, Link: 1}); err != nil {
				t.Fatal(err)
			}
			durableAt := time.Now()
			p := h.next(t, time.Second)
			if lag := p.at.Sub(durableAt); lag > 50*time.Millisecond {
				t.Errorf("stream pushed %s after the record became durable, want <= 50ms", lag)
			}
			evs, err := journal.DecodeFrames(p.Frames)
			if err != nil || len(evs) != 1 || evs[0].Seq != from || p.DurableSeq != from {
				t.Fatalf("stream pushed %d records (err %v), durable_seq %d; want exactly record %d", len(evs), err, p.DurableSeq, from)
			}
			if got := primary.jnl.DiskWalksForTesting(); got != walks {
				t.Errorf("the stream walked the segment files %d times, want 0", got-walks)
			}
		})
	}
}

// TestIdlePollIsTheLeaseHeartbeat: with nothing to ship a stream still
// pushes — an empty message, one heartbeat interval after it parked — and
// the acknowledgments of an idle standby keep the primary's lease alive.
func TestIdlePollIsTheLeaseHeartbeat(t *testing.T) {
	const lease = 400 * time.Millisecond
	g := testGraph(t)
	primary := bootNode(t, g, "", replica.Config{Lease: lease})
	defer primary.close(t)
	establishSome(t, primary.srv, 3)
	tip := primary.jnl.LastSeq()

	start := time.Now()
	h := openStream(t, primary, tip+1)
	p := h.next(t, 2*time.Second)
	if took := p.at.Sub(start); took < 90*time.Millisecond || took > time.Second {
		t.Errorf("idle stream's first heartbeat came after %s (lease %s)", took, lease)
	}
	if len(p.Frames) != 0 || p.DurableSeq != tip {
		t.Errorf("idle heartbeat carried %d frame bytes, durable_seq %d; want none, %d", len(p.Frames), p.DurableSeq, tip)
	}
	if st := primary.node.StatsBlock(); !st.LeaseEnabled || st.LeaseLost || st.ReplicatedSeq != tip {
		t.Errorf("after the opening: %+v; want the lease held and seq %d confirmed", st, tip)
	}
	h.cancel()

	standby := bootNode(t, g, primary.http.URL, replica.Config{Lease: lease})
	defer standby.close(t)
	go func() { _ = standby.node.Run(context.Background()) }()
	waitFor(t, 3*time.Second, "the standby's acknowledgments to hold the lease", func() bool {
		return standby.node.StatsBlock().AppliedSeq == tip && !primary.node.LeaseLost()
	})
	for end := time.Now().Add(4 * lease); time.Now().Before(end); time.Sleep(lease / 10) {
		if primary.node.LeaseLost() {
			t.Fatal("an idle pair lost its lease: the heartbeat is gone")
		}
	}
	if _, err := primary.srv.Establish(context.Background(), 0, 1, qos.DefaultSpec()); err != nil && !errors.Is(err, manager.ErrRejected) {
		t.Fatalf("establish on an idle leased pair: %v", err)
	}
}

// TestStreamPipelines: a standby that withholds its acknowledgment of
// record N still receives N+1 the moment N+1 is durable on the primary —
// a push never waits for the previous acknowledgment — while N's client is
// answered only once the acknowledgment arrives.
func TestStreamPipelines(t *testing.T) {
	g, ctx := testGraph(t), context.Background()
	primary := bootNode(t, g, "", replica.Config{})
	defer primary.close(t)
	h := openStream(t, primary, primary.jnl.LastSeq()+1)

	type answer struct {
		err error
		at  time.Time
	}
	failLink := func(link int) chan answer {
		done := make(chan answer, 1)
		go func() {
			_, err := primary.srv.FailLink(ctx, topology.LinkID(link))
			done <- answer{err, time.Now()}
		}()
		return done
	}
	first := failLink(0)
	p := h.next(t, time.Second)
	evs, err := journal.DecodeFrames(p.Frames)
	if err != nil || len(evs) != 1 {
		t.Fatalf("first push: %d records, err %v", len(evs), err)
	}
	n := evs[0].Seq

	second := failLink(2)
	p = h.next(t, time.Second)
	if evs, err = journal.DecodeFrames(p.Frames); err != nil || len(evs) != 1 || evs[0].Seq != n+1 {
		t.Fatalf("second push: %d records, err %v; want record %d while %d is unacknowledged", len(evs), err, n+1, n)
	}
	select {
	case a := <-first:
		t.Fatalf("record %d's client answered (err %v) before the standby acknowledged it", n, a.err)
	case <-time.After(50 * time.Millisecond):
	}

	acked := time.Now()
	h.ack(t, n)
	select {
	case a := <-first:
		if a.err != nil {
			t.Fatalf("record %d: %v", n, a.err)
		}
		if a.at.Before(acked) {
			t.Fatalf("record %d answered before its acknowledgment", n)
		}
	case <-time.After(time.Second):
		t.Fatalf("record %d's client still waits 1 s after the acknowledgment", n)
	}
	select {
	case a := <-second:
		t.Fatalf("record %d's client answered (err %v) on the acknowledgment of %d", n+1, a.err, n)
	case <-time.After(50 * time.Millisecond):
	}
	h.ack(t, n+1)
	if a := <-second; a.err != nil {
		t.Fatalf("record %d: %v", n+1, a.err)
	}
}

// TestAckNeverPassesStandbyDurable: under two concurrent clients and a
// standby whose journal commits in groups, the primary's replicated seq
// never runs ahead of what is durable — and applied — on the standby. The
// primary is read first at every sample, so a later standby reading can
// only be larger.
func TestAckNeverPassesStandbyDurable(t *testing.T) {
	g := testGraph(t)
	opt := journal.Options{GroupCommit: true}
	primary := bootNodeWith(t, g, opt, "", replica.Config{})
	defer primary.close(t)
	standby := bootNodeWith(t, g, opt, primary.http.URL, replica.Config{})
	defer standby.close(t)
	go func() { _ = standby.node.Run(context.Background()) }()
	waitFor(t, 3*time.Second, "the standby's stream", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rng.New(uint64(90 + c))
			ctx, nodes := context.Background(), g.NumNodes()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, z := src.Intn(nodes), src.Intn(nodes)
				if a == z {
					continue
				}
				rep, err := primary.srv.Establish(ctx, topology.NodeID(a), topology.NodeID(z), qos.DefaultSpec())
				if err == nil {
					_, err = primary.srv.Terminate(ctx, rep.Conn.ID)
				}
				if err != nil && !errors.Is(err, manager.ErrRejected) {
					t.Error(err)
					return
				}
			}
		}()
	}
	samples := 0
	for end := time.Now().Add(time.Second); time.Now().Before(end); samples++ {
		replicated := primary.node.StatsBlock().ReplicatedSeq
		durable := standby.jnl.DurableSeq()
		applied := standby.node.StatsBlock().AppliedSeq
		if replicated > durable || replicated > applied {
			t.Fatalf("primary holds seq %d replicated; the standby has %d durable, %d applied", replicated, durable, applied)
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if tip := primary.jnl.LastSeq(); tip < 20 {
		t.Fatalf("only %d records journaled in a second", tip)
	}
	t.Logf("%d samples over %d records", samples, primary.jnl.LastSeq())
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
	waitFor(t, 3*time.Second, "the standby's stream", func() bool {
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

	resp, err := http.Get(primary.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`drqos_replica_ack_wait_seconds{quantile="0.5"} `, `drqos_replica_ack_wait_seconds{quantile="0.99"} `} {
		if !bytes.Contains(metrics, []byte(q)) {
			t.Errorf("/metrics lacks %s", q)
		}
	}
}

// TestConfirmedAckIsNotHeld: a confirmed acknowledgment leaves the moment
// the standby's acknowledgment confirms it. A primary nobody streams from
// never waits; every acknowledged mutation is confirmed first; and once
// the standby has
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
	waitFor(t, 3*time.Second, "the standby's stream", func() bool {
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
// replicated-ack path end to end without a client-side HTTP hop. With two
// clients the stream carries one client's records while the other's are
// being confirmed; µs/op is wall time per pair across both.
func BenchmarkReplicatedEstablish(b *testing.B) {
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchmarkReplicated(b, clients)
		})
	}
}

func benchmarkReplicated(b *testing.B, clients int) {
	g, ctx := testGraph(b), context.Background()
	opt := journal.Options{FsyncEvery: 1, GroupCommit: true}
	primary := bootNodeWith(b, g, opt, "", replica.Config{})
	defer primary.close(b)
	standby := bootNodeWith(b, g, opt, primary.http.URL, replica.Config{})
	defer standby.close(b)
	go func() { _ = standby.node.Run(ctx) }()
	waitFor(b, 3*time.Second, "the standby's first acknowledgment", func() bool {
		return primary.node.StatsBlock().Followers == 1
	})
	pair := func(src *rng.Source) error {
		a, z := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
		if a == z {
			z = (z + 1) % g.NumNodes()
		}
		rep, err := primary.srv.Establish(ctx, topology.NodeID(a), topology.NodeID(z), qos.DefaultSpec())
		if errors.Is(err, manager.ErrRejected) {
			return nil
		}
		if err != nil {
			return err
		}
		_, err = primary.srv.Terminate(ctx, rep.Conn.ID)
		return err
	}
	warm := rng.New(1)
	for i := 0; i < 20; i++ {
		if err := pair(warm); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(src *rng.Source) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := pair(src); err != nil {
					errs <- err
					return
				}
			}
		}(rng.New(uint64(2 + c)))
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
	b.ReportMetric(1000*primary.node.StatsBlock().AckWaitMsP50, "ack_wait_us_p50")
}

// TestReadStreamMessageRefusesMalformed: what a standby reads off the wire
// is checked before it is trusted — a size that cannot hold the fixed
// fields, and verify points that run past the message, are refused.
func TestReadStreamMessageRefusesMalformed(t *testing.T) {
	msg := func(size uint32, body []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, size), body...)
	}
	fixed := make([]byte, 18)        // term, durable seq, no verify point
	pointless := make([]byte, 18+10) // claims one point, carries its head only
	binary.LittleEndian.PutUint16(pointless[16:], 1)
	binary.LittleEndian.PutUint16(pointless[26:], 64)
	for name, wire := range map[string][]byte{
		"too short":          msg(17, make([]byte, 17)),
		"truncated body":     msg(30, fixed),
		"point past the end": msg(uint32(len(pointless)), pointless),
		"point head cut":     msg(18+4, append(append([]byte(nil), pointless[:18]...), 0, 0, 0, 0)),
	} {
		if name == "point head cut" {
			binary.LittleEndian.PutUint16(wire[4+16:], 1)
		}
		if _, err := replica.ReadStreamMessage(bytes.NewReader(wire)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	m, err := replica.ReadStreamMessage(bytes.NewReader(msg(18, fixed)))
	if err != nil || len(m.Frames) != 0 || len(m.Verify) != 0 {
		t.Fatalf("the empty heartbeat: %+v, %v", m, err)
	}
}
