// Command drload is a closed-loop load generator for drserverd: K worker
// goroutines replay a randomized arrival/termination/fault mix against the
// daemon's JSON API and report throughput, outcome counts and latency
// percentiles (p50/p90/p99 of every attempt, from stats.Latency).
// Transport failures, 503s (a degraded or overloaded server shedding
// mutations) and 429s (per-client rate limit) are retried with capped
// exponential backoff and jitter — honoring the server's Retry-After hint
// when one is sent; retries, honored hints and give-ups are reported
// separately from hard errors in the digest. After the run it asks the
// server to audit its ledger (GET /v1/invariants) and exits non-zero on any
// transport error, unexpected status, or a dirty invariant check. Both the
// single plane and the sharded front end (-shards > 1) are valid targets.
//
//	drserverd -addr :8080 &
//	drload -addr http://127.0.0.1:8080 -workers 8 -requests 10000
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drload:", err)
		os.Exit(1)
	}
}

type counters struct {
	established atomic.Int64
	rejected    atomic.Int64
	terminated  atomic.Int64
	gone        atomic.Int64 // terminate hit a connection a fault already dropped
	failed      atomic.Int64
	repaired    atomic.Int64
	conflicts   atomic.Int64 // fault raced another worker's fault
	retries     atomic.Int64 // re-issued after a transport error, 503 or 429
	hints       atomic.Int64 // retries that honored a server Retry-After hint
	giveups     atomic.Int64 // retry budget exhausted
	errors      atomic.Int64
}

// run drives one load run with the command line args, writing its report
// to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("drload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "drserverd base URL")
		workers   = fs.Int("workers", 8, "concurrent closed-loop workers")
		requests  = fs.Int64("requests", 10000, "total HTTP requests to issue")
		seed      = fs.Uint64("seed", 1, "workload seed")
		termFrac  = fs.Float64("terminate-frac", 0.35, "probability an op terminates an owned connection")
		faultFrac = fs.Float64("fault-frac", 0.004, "probability an op injects/repairs a link fault")
		minBW     = fs.Int64("min", 0, "elastic minimum (Kbps, 0 = server default spec)")
		maxBW     = fs.Int64("max", 0, "elastic maximum (Kbps)")
		inc       = fs.Int64("inc", 0, "elastic increment (Kbps)")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		retries   = fs.Int("retries", 4, "retry budget per request for transport errors and 503s (0 disables)")
		retryBase = fs.Duration("retry-base", 50*time.Millisecond, "initial retry backoff (doubles per attempt, with jitter)")
		retryMax  = fs.Duration("retry-max", 2*time.Second, "retry backoff cap")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers <= 0 || *requests <= 0 {
		return fmt.Errorf("workers (%d) and requests (%d) must be positive", *workers, *requests)
	}
	base := strings.TrimSuffix(*addr, "/")
	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *workers * 2,
			MaxIdleConnsPerHost: *workers * 2,
		},
	}

	// Discover the topology once so workers can draw endpoints and links.
	st, err := fetchStats(client, base)
	if err != nil {
		return fmt.Errorf("initial stats (is drserverd running at %s?): %w", base, err)
	}
	fmt.Fprintf(out, "target: %s — %d nodes, %d links, capacity %d Kbps\n",
		base, st.Nodes, st.Links, st.CapacityKbps)

	var (
		cnt    counters
		lat    stats.Latency
		issued atomic.Int64
		wg     sync.WaitGroup
		msgs   = make(chan string, *workers) // first error per worker
	)
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &worker{
				id: w, client: client, base: base,
				src: rng.New(*seed + uint64(w)*0x9e3779b97f4a7c15),
				// Jitter draws come from a separate stream so retries do
				// not perturb the deterministic operation mix.
				jit:   rng.New(*seed ^ 0xdead0000 + uint64(w)),
				nodes: st.Nodes, links: st.Links,
				termFrac: *termFrac, faultFrac: *faultFrac,
				minBW: *minBW, maxBW: *maxBW, inc: *inc,
				retries: *retries, retryBase: *retryBase, retryMax: *retryMax,
				cnt: &cnt, lat: &lat,
				failedLink: -1,
			}
			for issued.Add(1) <= *requests {
				if err := wk.step(); err != nil {
					if cnt.errors.Add(1) <= int64(cap(msgs)) {
						select {
						case msgs <- err.Error():
						default:
						}
					}
				}
			}
			// Repair an outstanding fault so the run leaves the topology
			// intact: one untimed request outside the counted outcomes,
			// best effort (a link it fails to repair shows in the final
			// server line's failed_links).
			if wk.failedLink >= 0 {
				_, _, _, _ = doJSON(client, "POST", base+"/v1/faults/link",
					server.FaultRequest{Link: wk.failedLink, Action: "repair"}, nil)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(msgs)

	fmt.Fprintf(out, "\n%d requests in %.2fs — %.0f req/s over %d workers\n",
		*requests, elapsed.Seconds(), float64(*requests)/elapsed.Seconds(), *workers)
	fmt.Fprintf(out, "outcomes: established=%d rejected=%d terminated=%d gone=%d failed=%d repaired=%d conflicts=%d errors=%d\n",
		cnt.established.Load(), cnt.rejected.Load(), cnt.terminated.Load(), cnt.gone.Load(),
		cnt.failed.Load(), cnt.repaired.Load(), cnt.conflicts.Load(), cnt.errors.Load())
	fmt.Fprintf(out, "resilience: retries=%d honored_hints=%d giveups=%d\n",
		cnt.retries.Load(), cnt.hints.Load(), cnt.giveups.Load())
	d := lat.Summary()
	// With no samples every figure is 0: render "n/a" instead of a bogus
	// 0.00ms.
	ms := func(v time.Duration) string {
		if d.N == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2fms", v.Seconds()*1e3)
	}
	fmt.Fprintf(out, "latency: mean=%s p50=%s p90=%s p99=%s max=%s (n=%d)\n",
		ms(d.Mean), ms(d.P50), ms(d.P90), ms(d.P99), ms(d.Max), d.N)
	for m := range msgs {
		fmt.Fprintf(out, "first errors: %s\n", m)
	}

	if st, err = fetchStats(client, base); err != nil {
		return fmt.Errorf("final stats: %w", err)
	}
	fmt.Fprintf(out, "server: alive=%d unprotected=%d avg_bw=%.1fKbps reject_rate=%.3f failed_links=%v\n",
		st.Alive, st.Unprotected, st.AvgBandwidthKbps, st.RejectRate, st.FailedLinks)

	var inv struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if _, _, _, err := doJSON(client, "GET", base+"/v1/invariants", nil, &inv); err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	if !inv.OK {
		return fmt.Errorf("server invariants dirty: %s", inv.Error)
	}
	fmt.Fprintln(out, "server invariants: clean")
	if n := cnt.errors.Load(); n > 0 {
		return fmt.Errorf("%d request errors", n)
	}
	return nil
}

// worker is one closed-loop client: it owns the connections it established
// and at most one injected link fault at a time (so faults always pair with
// repairs and never leave the topology degraded at exit).
type worker struct {
	client              *http.Client
	base                string
	id                  int
	reqSeq              int64
	src, jit            *rng.Source
	nodes, links        int
	termFrac            float64
	faultFrac           float64
	minBW, maxBW, inc   int64
	retries             int
	retryBase, retryMax time.Duration
	cnt                 *counters
	lat                 *stats.Latency
	owned               []int64
	failedLink          int
}

// step issues exactly one HTTP request.
func (w *worker) step() error {
	draw := w.src.Float64()
	switch {
	case draw < w.faultFrac && w.links > 0:
		return w.fault()
	case draw < w.faultFrac+w.termFrac && len(w.owned) > 0:
		return w.terminate()
	default:
		return w.establish()
	}
}

func (w *worker) establish() error {
	a := w.src.Intn(w.nodes)
	b := w.src.Intn(w.nodes)
	if a == b {
		b = (b + 1) % w.nodes
	}
	req := server.EstablishRequest{
		Src: a, Dst: b,
		MinKbps: w.minBW, MaxKbps: w.maxBW, IncrementKbps: w.inc,
		Utility: 1,
	}
	w.reqSeq++
	rid := fmt.Sprintf("w%02d-%08d", w.id, w.reqSeq)
	var resp server.EstablishResponse
	code, err := w.timed("POST", "/v1/connections", req, &resp, "X-Request-ID", rid)
	switch {
	case err != nil:
		return err
	case code == http.StatusCreated:
		w.cnt.established.Add(1)
		w.owned = append(w.owned, resp.ID)
		return nil
	case code == http.StatusConflict: // admission rejection, an expected outcome
		w.cnt.rejected.Add(1)
		return nil
	default:
		return fmt.Errorf("establish: unexpected status %d", code)
	}
}

func (w *worker) terminate() error {
	i := w.src.Intn(len(w.owned))
	id := w.owned[i]
	w.owned[i] = w.owned[len(w.owned)-1]
	w.owned = w.owned[:len(w.owned)-1]
	code, err := w.timed("DELETE", fmt.Sprintf("/v1/connections/%d", id), nil, nil)
	switch {
	case err != nil:
		return err
	case code == http.StatusOK:
		w.cnt.terminated.Add(1)
		return nil
	case code == http.StatusNotFound: // dropped by a fault in the meantime
		w.cnt.gone.Add(1)
		return nil
	default:
		return fmt.Errorf("terminate %d: unexpected status %d", id, code)
	}
}

func (w *worker) fault() error {
	if w.failedLink >= 0 {
		link := w.failedLink
		code, err := w.timed("POST", "/v1/faults/link",
			server.FaultRequest{Link: link, Action: "repair"}, nil)
		switch {
		case err != nil:
			return err
		case code == http.StatusOK:
			w.failedLink = -1
			w.cnt.repaired.Add(1)
			return nil
		case code == http.StatusConflict: // another worker repaired it? treat as done
			w.failedLink = -1
			w.cnt.conflicts.Add(1)
			return nil
		default:
			return fmt.Errorf("repair link %d: unexpected status %d", link, code)
		}
	}
	link := w.src.Intn(w.links)
	code, err := w.timed("POST", "/v1/faults/link", server.FaultRequest{Link: link}, nil)
	switch {
	case err != nil:
		return err
	case code == http.StatusOK:
		w.failedLink = link
		w.cnt.failed.Add(1)
		return nil
	case code == http.StatusConflict: // already failed by a peer
		w.cnt.conflicts.Add(1)
		return nil
	default:
		return fmt.Errorf("fail link %d: unexpected status %d", link, code)
	}
}

// timed issues one request, recording each attempt's latency. Transport
// errors, 503s (degraded or overloaded server) and 429s (rate limit) are
// retried with capped exponential backoff and full jitter; once the budget
// is spent the request is counted as a give-up and surfaces as an error.
// When the refusal carries a Retry-After hint, the worker sleeps for the
// hinted time instead of its own backoff guess — the server knows how long
// its own recovery takes.
func (w *worker) timed(method, path string, body, out any, hdrs ...string) (int, error) {
	backoff := w.retryBase
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		code, retryAfter, hinted, err := doJSON(w.client, method, w.base+path, body, out, hdrs...)
		w.lat.Observe(time.Since(t0))
		if err == nil && code != http.StatusServiceUnavailable && code != http.StatusTooManyRequests {
			return code, nil
		}
		if attempt >= w.retries {
			w.cnt.giveups.Add(1)
			if err != nil {
				return code, fmt.Errorf("giving up after %d attempts: %w", attempt+1, err)
			}
			return code, fmt.Errorf("giving up after %d attempts: status %d", attempt+1, code)
		}
		w.cnt.retries.Add(1)
		if hinted {
			// Honor the server's hint, with a little jitter on top so
			// hinted workers don't all come back in the same instant.
			w.cnt.hints.Add(1)
			time.Sleep(retryAfter + time.Duration(w.jit.Float64()*float64(w.retryBase)))
		} else {
			// Sleep uniformly in [backoff/2, backoff] so workers don't
			// thunder back in lockstep, then double up to the cap.
			time.Sleep(backoff/2 + time.Duration(w.jit.Float64()*float64(backoff/2)))
		}
		if backoff *= 2; backoff > w.retryMax {
			backoff = w.retryMax
		}
	}
}

// fetchStats reads the service stats in either shape the daemon serves:
// bare server.Stats (single plane) or the sharded front end's aggregate.
func fetchStats(client *http.Client, base string) (server.Stats, error) {
	var resp struct {
		server.Stats
		Aggregate *server.Stats `json:"aggregate"`
	}
	code, _, _, err := doJSON(client, "GET", base+"/v1/stats", nil, &resp)
	switch {
	case err != nil:
		return server.Stats{}, err
	case code != http.StatusOK:
		return server.Stats{}, fmt.Errorf("GET /v1/stats: unexpected status %d", code)
	case resp.Aggregate != nil:
		return *resp.Aggregate, nil
	}
	return resp.Stats, nil
}

// doJSON performs one JSON round trip, returning the status code, the
// parsed Retry-After hint and whether the server sent a well-formed hint
// at all (delay-seconds or HTTP-date form — a past date is a valid hint of
// zero wait). Transport failures return an error; non-2xx statuses do not
// (callers classify them). hdrs is an optional flat list of header
// key/value pairs.
func doJSON(client *http.Client, method, url string, body, out any, hdrs ...string) (int, time.Duration, bool, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, false, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdrs); i += 2 {
		req.Header.Set(hdrs[i], hdrs[i+1])
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, false, err
	}
	defer resp.Body.Close()
	retryAfter, hinted := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, retryAfter, hinted, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, retryAfter, hinted, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, retryAfter, hinted, nil
}
