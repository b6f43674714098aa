package replica_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"drqos/internal/channel"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/replica"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// streamTap is a follower transport that notes, in order, every request the
// follower makes and how many verify points the stream it opened carried
// (counted as the follower reads each push).
type streamTap struct {
	mu     sync.Mutex
	paths  []string
	points []int // per request; -1 for anything but a 200 stream answer
}

func (tap *streamTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	tap.mu.Lock()
	defer tap.mu.Unlock()
	tap.paths = append(tap.paths, req.URL.Path)
	tap.points = append(tap.points, -1)
	if err == nil && resp.StatusCode == http.StatusOK && strings.HasSuffix(req.URL.Path, "/stream") {
		tap.points[len(tap.points)-1] = 0
		resp.Body = &tapBody{ReadCloser: resp.Body, tap: tap, at: len(tap.points) - 1}
	}
	return resp, err
}

// tapBody counts the verify points of each push the moment the follower
// has read all of it.
type tapBody struct {
	io.ReadCloser
	tap     *streamTap
	at      int
	pending []byte
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.pending = append(b.pending, p[:n]...)
	for len(b.pending) >= 4 {
		size := 4 + int(binary.LittleEndian.Uint32(b.pending))
		if len(b.pending) < size {
			break
		}
		m, merr := replica.ReadStreamMessage(bytes.NewReader(b.pending[:size]))
		if merr != nil {
			return n, merr
		}
		b.pending = b.pending[size:]
		b.tap.mu.Lock()
		b.tap.points[b.at] += len(m.Verify)
		b.tap.mu.Unlock()
	}
	return n, err
}

// seen returns the verify points handed over so far and the path of the
// request that followed the first stream carrying one ("" if none yet).
func (tap *streamTap) seen() (total int, next string) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for i, n := range tap.points {
		if n > 0 {
			if total == 0 && i+1 < len(tap.paths) {
				next = tap.paths[i+1]
			}
			total += n
		}
	}
	return total, next
}

// churn journals at least records more records on the primary from a few
// concurrent clients, so stream batches hold a handful of records each.
func churn(t *testing.T, tn *testNode, records uint64) {
	t.Helper()
	ctx := context.Background()
	target := tn.jnl.LastSeq() + records
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rng.New(uint64(40 + w))
			nodes := tn.srv.StatsView().Nodes
			var mine []channel.ConnID
			for tn.jnl.LastSeq() < target {
				if len(mine) > 0 && src.Float64() < 0.45 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if _, err := tn.srv.Terminate(ctx, id); err != nil {
						t.Errorf("terminate: %v", err)
						return
					}
					continue
				}
				a, b := src.Intn(nodes), src.Intn(nodes)
				if a == b {
					b = (b + 1) % nodes
				}
				rep, err := tn.srv.Establish(ctx, topology.NodeID(a), topology.NodeID(b), qos.DefaultSpec())
				if err == nil {
					mine = append(mine, rep.Conn.ID)
				} else if !errors.Is(err, manager.ErrRejected) {
					t.Errorf("establish: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func converged(t *testing.T, primary, follower *testNode) {
	t.Helper()
	ctx := context.Background()
	waitFor(t, 5*time.Second, "follower to reach the primary's tip", func() bool {
		return follower.jnl.LastSeq() == primary.jnl.LastSeq()
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
		t.Fatalf("follower fingerprint %s, primary %s", ffp, pfp)
	}
}

// TestVerifyPointsPass: over ten minting bounds of records, a healthy
// follower is handed — and passes — a verify point about once per bound:
// neither every record (the export is the expensive part of both sides'
// work) nor so rarely a divergence could hide.
func TestVerifyPointsPass(t *testing.T) {
	g := testGraph(t)
	tap := &streamTap{}
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	defer primary.close(t)
	follower := bootNode(t, g, primary.http.URL, replica.Config{PollWait: 20 * time.Millisecond, Transport: tap})
	defer follower.close(t)
	go func() { _ = follower.node.Run(context.Background()) }()

	churn(t, primary, 10*replica.VerifyEvery+replica.VerifyEvery/2)
	converged(t, primary, follower)
	n, _ := tap.seen()
	t.Logf("%d verify points over %d records", n, primary.jnl.LastSeq())
	if n < 5 || n > 11 {
		t.Fatalf("follower was handed %d verify points over %d records (one per %d), want 5..11",
			n, primary.jnl.LastSeq(), replica.VerifyEvery)
	}
	if deg, why := follower.srv.Degraded(); deg || follower.srv.StatsView().InvariantViolations != 0 {
		t.Fatalf("healthy follower failed a verify point: degraded=%v %s", deg, why)
	}
}

// TestVerifyPointCatchesDivergence: a follower whose manager was perturbed
// out of band — one rejected establish its journal never saw, so every
// record still replays — fails the first verify point it is handed: it
// latches diverged, acknowledges nothing further,
// re-bootstraps from the primary's snapshot and converges.
func TestVerifyPointCatchesDivergence(t *testing.T) {
	g := testGraph(t)
	tap := &streamTap{}
	primary := bootNode(t, g, "", replica.Config{PollWait: 20 * time.Millisecond})
	defer primary.close(t)
	follower := bootNode(t, g, primary.http.URL, replica.Config{PollWait: 20 * time.Millisecond, Transport: tap})
	defer follower.close(t)
	if err := follower.srv.PerturbForTesting(context.Background(), func(m *manager.Manager) {
		if _, err := m.Establish(0, 0, qos.DefaultSpec()); !errors.Is(err, manager.ErrRejected) {
			t.Errorf("perturbing establish: %v, want a rejection", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = follower.node.Run(context.Background()) }()

	churn(t, primary, 2*replica.VerifyEvery)
	waitFor(t, 5*time.Second, "the follower to re-bootstrap", func() bool {
		_, recoveries, _, _ := follower.srv.RecoveryStatus()
		return recoveries > 0
	})
	if follower.srv.StatsView().InvariantViolations == 0 {
		t.Fatal("follower re-bootstrapped without latching a divergence")
	}
	if n, next := tap.seen(); n == 0 || !strings.HasSuffix(next, "/snapshot") {
		t.Fatalf("after the answer carrying the verify point the follower asked for %q, want the snapshot (%d points seen)", next, n)
	}
	// The re-seeded follower is a healthy one: it keeps up and passes the
	// next point too.
	churn(t, primary, 2*replica.VerifyEvery)
	converged(t, primary, follower)
	if deg, why := follower.srv.Degraded(); deg {
		t.Fatalf("follower still degraded after re-bootstrap: %s", why)
	}
	if n, _ := tap.seen(); n < 2 {
		t.Fatalf("re-seeded follower was handed no further verify point (%d in all)", n)
	}
}
