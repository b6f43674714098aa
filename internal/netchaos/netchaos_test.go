package netchaos

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Dropped returns how many messages were dropped on the directed pair
// (request and response drops both count).
func (nw *Network) Dropped(src, dst string) int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.dropped[[2]string{src, dst}]
}

// TestQuietNetworkPassesThrough: no rules, no interference.
func TestQuietNetworkPassesThrough(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	nw := New(1)
	client := &http.Client{Transport: nw.Transport("a", "b", nil)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" || hits.Load() != 1 {
		t.Fatalf("body=%q hits=%d", body, hits.Load())
	}
}

// TestDropRequestStallsUntilDeadline: a request-dropped message is silence —
// the server never sees it and the caller fails at its context deadline.
func TestDropRequestStallsUntilDeadline(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()

	nw := New(2)
	nw.SetRule("a", "b", Rule{DropRequest: 1})
	client := &http.Client{Transport: nw.Transport("a", "b", nil)}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("partitioned request succeeded")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("failed after %s, want ~deadline (silence, not fast refusal)", d)
	}
	if hits.Load() != 0 {
		t.Fatalf("server saw %d requests across a request-drop partition", hits.Load())
	}
	if nw.Dropped("a", "b") != 1 {
		t.Fatalf("dropped count = %d, want 1", nw.Dropped("a", "b"))
	}
}

// TestDropResponseDeliversButFails: the half-open case — side effects
// happen on the far side, the caller still sees a failure.
func TestDropResponseDeliversButFails(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()

	nw := New(3)
	nw.SetRule("a", "b", Rule{DropResponse: 1})
	client := &http.Client{Transport: nw.Transport("a", "b", nil)}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if _, err := client.Do(req); err == nil {
		t.Fatal("response-dropped request reported success")
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (request leg delivers)", hits.Load())
	}
}

// TestDuplicateDeliversTwice: at-least-once delivery — the far side runs
// the request twice while the caller sees one success.
func TestDuplicateDeliversTwice(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if string(b) == "payload" {
			hits.Add(1)
		}
	}))
	defer srv.Close()

	nw := New(4)
	nw.SetRule("a", "b", Rule{Duplicate: 1})
	client := &http.Client{Transport: nw.Transport("a", "b", nil)}
	resp, err := client.Post(srv.URL, "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 2 {
		t.Fatalf("server saw %d deliveries, want 2", hits.Load())
	}
}

// TestDoRoutesInProcessCalls: the coordinator-side hook honors the same
// rules — partitioned calls never run, response drops run but fail.
func TestDoRoutesInProcessCalls(t *testing.T) {
	nw := New(5)
	var ran atomic.Int64
	call := func(ctx context.Context) error { ran.Add(1); return nil }

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := nw.Do(ctx, "coord", "shard-1", call); err != nil {
		t.Fatalf("quiet Do failed: %v", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("call ran %d times, want 1", ran.Load())
	}

	nw.SetRule("coord", "shard-1", Rule{DropRequest: 1})
	if err := nw.Do(ctx, "coord", "shard-1", call); err == nil {
		t.Fatal("partitioned Do succeeded")
	}
	if ran.Load() != 1 {
		t.Fatal("partitioned call still ran")
	}

	nw.Heal()
	nw.SetRule("coord", "shard-1", Rule{DropResponse: 1})
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if err := nw.Do(ctx2, "coord", "shard-1", call); err == nil {
		t.Fatal("response-dropped Do succeeded")
	}
	if ran.Load() != 2 {
		t.Fatalf("response-dropped call ran %d times total, want 2 (it delivers)", ran.Load())
	}
}

// TestSeedDeterminism: the same seed and message order yield the same
// drop pattern.
func TestSeedDeterminism(t *testing.T) {
	pattern := func(seed uint64) []bool {
		nw := New(seed)
		nw.SetRule("a", "b", Rule{DropRequest: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = nw.plan("a", "b").dropRequest
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 64-message patterns")
	}
}

// TestDelayJitterWithinBounds: delays land inside [DelayMin, DelayMax].
func TestDelayJitterWithinBounds(t *testing.T) {
	nw := New(6)
	nw.SetRule("a", "b", Rule{DelayMin: 2 * time.Millisecond, DelayMax: 9 * time.Millisecond})
	for i := 0; i < 32; i++ {
		d := nw.plan("a", "b")
		if d.delay < 2*time.Millisecond || d.delay > 9*time.Millisecond {
			t.Fatalf("delay %s outside [2ms,9ms]", d.delay)
		}
	}
}

// duplex answers every request as a full-duplex stream: it counts the bytes
// that arrive on the request body and pushes one byte every 5 ms.
type duplex struct{ got atomic.Int64 }

func (d *duplex) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
	if rc.Flush() != nil {
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b := make([]byte, 64)
		for {
			n, err := r.Body.Read(b)
			d.got.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		_ = rc.SetReadDeadline(time.Now())
		<-done
	}()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if _, err := w.Write([]byte{'t'}); err != nil || rc.Flush() != nil {
				return
			}
		}
	}
}

// openDuplex opens a stream a->b on url and keeps writing one byte every
// 5 ms on its request body; received counts what its response body brings.
// The stream closes when the test ends.
func openDuplex(t *testing.T, nw *Network, url string) (received *atomic.Int64, readErr chan error, cancel context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	body, w := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Close = true
	resp, err := (&http.Client{Transport: nw.Transport("a", "b", nil)}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	received, readErr = new(atomic.Int64), make(chan error, 1)
	go func() {
		b := make([]byte, 64)
		for {
			n, err := resp.Body.Read(b)
			received.Add(int64(n))
			if err != nil {
				readErr <- err
				return
			}
		}
	}()
	go func() {
		for ctx.Err() == nil {
			if _, err := w.Write([]byte{'x'}); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	t.Cleanup(func() {
		cancel()
		w.CloseWithError(context.Canceled)
		resp.Body.Close()
	})
	return received, readErr, cancel
}

// moving reports whether c grows within 80 ms.
func moving(c *atomic.Int64) bool {
	before := c.Load()
	time.Sleep(80 * time.Millisecond)
	return c.Load() > before
}

// TestStreamStallsBothWays: a rule installed on an open stream is checked
// on its next reads, and a drop stalls the stream in both directions — a
// response drop stops what the far side hears too — until the caller
// gives up.
func TestStreamStallsBothWays(t *testing.T) {
	d := &duplex{}
	srv := httptest.NewServer(d)
	t.Cleanup(srv.Close) // after the stream's own cleanup
	nw := New(7)
	received, readErr, cancel := openDuplex(t, nw, srv.URL)
	if !moving(&d.got) || !moving(received) {
		t.Fatal("a quiet stream does not flow both ways")
	}

	nw.SetRule("a", "b", Rule{DropResponse: 1})
	time.Sleep(20 * time.Millisecond) // what was read before the rule lands
	if moving(&d.got) {
		t.Error("the far side still hears the stream after a drop rule")
	}
	if moving(received) {
		t.Error("the caller still hears the stream after a drop rule")
	}
	select {
	case err := <-readErr:
		t.Fatalf("a stalled stream failed on its own: %v", err)
	default:
	}
	cancel()
	select {
	case <-readErr:
	case <-time.After(time.Second):
		t.Fatal("a stalled read outlived its caller's context by 1 s")
	}
}

// TestStreamResumesOnHeal: a stalled stream flows again once the rules
// let it, in both directions, the way TCP resumes after a loss ends.
func TestStreamResumesOnHeal(t *testing.T) {
	d := &duplex{}
	srv := httptest.NewServer(d)
	t.Cleanup(srv.Close) // after the stream's own cleanup
	nw := New(8)
	received, _, _ := openDuplex(t, nw, srv.URL)
	nw.SetRule("a", "b", Rule{DropRequest: 1})
	time.Sleep(20 * time.Millisecond)
	if moving(&d.got) || moving(received) {
		t.Fatal("a request drop did not stall the open stream")
	}
	nw.Heal()
	if !moving(&d.got) || !moving(received) {
		t.Fatal("the stream did not resume both ways after Heal")
	}
}

// TestStreamDelayPerRead: a delay rule holds every read of an open
// stream's body, one after the other, and keeps their order.
func TestStreamDelayPerRead(t *testing.T) {
	const delay = 15 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		for i := byte(0); i < 8; i++ {
			w.Write([]byte{i})
			rc.Flush()
			time.Sleep(2 * time.Millisecond)
		}
	}))
	defer srv.Close()
	nw := New(9)
	nw.SetRule("a", "b", Rule{DelayMin: delay, DelayMax: delay})
	resp, err := (&http.Client{Transport: nw.Transport("a", "b", nil)}).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	start := time.Now()
	var got []byte
	reads := 0
	for b := make([]byte, 64); ; {
		n, err := resp.Body.Read(b)
		reads++
		got = append(got, b[:n]...)
		if err != nil {
			break
		}
	}
	if took := time.Since(start); took < time.Duration(reads)*delay {
		t.Errorf("%d reads took %s, want each held %s", reads, took, delay)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("read %v, want 0..7 in order", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("read %v, want 0..7", got)
	}
}
