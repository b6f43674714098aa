// Command drload is a closed-loop load generator for drserverd: K worker
// goroutines replay a randomized arrival/termination/fault mix against the
// daemon's JSON API and report throughput, outcome counts and streaming
// latency percentiles (p50/p90/p99 via the P² estimator in internal/stats).
// Transport failures, 503s (a degraded or overloaded server shedding
// mutations) and 429s (per-client rate limit) are retried with capped
// exponential backoff and jitter — honoring the server's Retry-After hint
// when one is sent; retries, honored hints and give-ups are reported
// separately from hard errors in the digest. After the run it asks the
// server to audit its ledger (GET /v1/invariants) and exits non-zero on any
// transport error, unexpected status, or a dirty invariant check.
//
//	drserverd -addr :8080 &
//	drload -addr http://127.0.0.1:8080 -workers 8 -requests 10000
//
// With -overload it instead runs the sustained over-capacity burst drill
// (see overload.go): calibrate the closed-loop rate, burst open-loop at a
// multiple of it, and gate on the server shedding, keeping reads fast, and
// returning to ready.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
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
	if err := run(); err != nil {
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
	failovers   atomic.Int64 // requests that succeeded after ≥1 transport-error retry
	errors      atomic.Int64
}

type latencies struct {
	mu sync.Mutex
	d  *stats.Digest
}

func (l *latencies) observe(seconds float64) {
	l.mu.Lock()
	l.d.Observe(seconds)
	l.mu.Unlock()
}

func run() error {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "drserverd base URL, or a comma-separated list of replica endpoints; on a transport failure a worker rotates to the next endpoint (requests that then succeed count as failovers_survived)")
		workers   = flag.Int("workers", 8, "concurrent closed-loop workers")
		requests  = flag.Int64("requests", 10000, "total HTTP requests to issue")
		seed      = flag.Uint64("seed", 1, "workload seed")
		termFrac  = flag.Float64("terminate-frac", 0.35, "probability an op terminates an owned connection")
		faultFrac = flag.Float64("fault-frac", 0.004, "probability an op injects/repairs a link fault")
		minBW     = flag.Int64("min", 0, "elastic minimum (Kbps, 0 = server default spec)")
		maxBW     = flag.Int64("max", 0, "elastic maximum (Kbps)")
		inc       = flag.Int64("inc", 0, "elastic increment (Kbps)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		retries   = flag.Int("retries", 4, "retry budget per request for transport errors and 503s (0 disables)")
		retryBase = flag.Duration("retry-base", 50*time.Millisecond, "initial retry backoff (doubles per attempt, with jitter)")
		retryMax  = flag.Duration("retry-max", 2*time.Second, "retry backoff cap")
	)
	flag.Parse()
	if *workers <= 0 || *requests <= 0 {
		return fmt.Errorf("workers (%d) and requests (%d) must be positive", *workers, *requests)
	}
	var endpoints []string
	for _, e := range strings.Split(*addr, ",") {
		if e = strings.TrimSuffix(strings.TrimSpace(e), "/"); e != "" {
			endpoints = append(endpoints, e)
		}
	}
	if len(endpoints) == 0 {
		return fmt.Errorf("-addr %q holds no endpoint", *addr)
	}
	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *workers * 2,
			MaxIdleConnsPerHost: *workers * 2,
		},
	}

	// Probes and reports target the first live endpoint — the list may
	// deliberately lead with a dead primary in a failover drill. A follower
	// there redirects mutations to the primary (doJSON bodies are
	// replayable, so the default client follows the 307), and reads are
	// served anywhere.
	*addr = endpoints[0]
	for _, e := range endpoints {
		if _, _, _, err := doJSON(client, "GET", e+"/healthz", nil, nil); err == nil {
			*addr = e
			break
		}
	}

	// Discover the topology once so workers can draw endpoints and links.
	// A sharded daemon answers GET /v1/shards and wraps its stats in an
	// aggregate; an unsharded one 404s the probe and serves Stats bare.
	sv, err := fetchShardView(client, *addr)
	if err != nil {
		return fmt.Errorf("shard probe (is drserverd running at %s?): %w", *addr, err)
	}
	var st server.Stats
	if err := fetchStats(client, *addr, sv, &st); err != nil {
		return fmt.Errorf("initial stats: %w", err)
	}
	if sv != nil {
		fmt.Printf("target: %s — %d nodes, %d links, capacity %d Kbps, %d shards\n",
			*addr, st.Nodes, st.Links, st.CapacityKbps, sv.shards)
		if *crossFrac >= 0 {
			fmt.Printf("workload: shard-aware pairs, cross-frac=%.3g\n", *crossFrac)
		}
	} else {
		fmt.Printf("target: %s — %d nodes, %d links, capacity %d Kbps\n",
			*addr, st.Nodes, st.Links, st.CapacityKbps)
		if *crossFrac >= 0 {
			fmt.Printf("note: -cross-frac ignored, daemon is not sharded\n")
		}
	}

	if *overloadMode {
		return runOverload(client, *addr, st, *seed)
	}

	var probe *forecastProbe
	if *forecastOn {
		probe = startForecastProbe(client, *addr, *forecastPollEvery)
	}

	var (
		cnt    counters
		lat    = &latencies{d: stats.NewDigest()}
		issued atomic.Int64
		wg     sync.WaitGroup
		msgs   = make(chan string, *workers) // first error per worker
		wks    = make([]*worker, *workers)
	)
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &worker{
				id: w, client: client, endpoints: endpoints,
				src: rng.New(*seed + uint64(w)*0x9e3779b97f4a7c15),
				// Jitter draws come from a separate stream so retries do
				// not perturb the deterministic operation mix.
				jit:   rng.New(*seed ^ 0xdead0000 + uint64(w)),
				nodes: st.Nodes, links: st.Links,
				termFrac: *termFrac, faultFrac: *faultFrac,
				minBW: *minBW, maxBW: *maxBW, inc: *inc,
				retries: *retries, retryBase: *retryBase, retryMax: *retryMax,
				cnt: &cnt, lat: lat,
				failedLink: -1,
				view:       sv, crossFrac: *crossFrac,
				ledger: make(map[int64]string),
			}
			wks[w] = wk
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
			// Repair an outstanding fault (uncounted) so the run leaves
			// the topology intact.
			if wk.failedLink >= 0 {
				_ = wk.fault()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(msgs)

	fmt.Printf("\n%d requests in %.2fs — %.0f req/s over %d workers\n",
		*requests, elapsed.Seconds(), float64(*requests)/elapsed.Seconds(), *workers)
	fmt.Printf("outcomes: established=%d rejected=%d terminated=%d gone=%d failed=%d repaired=%d conflicts=%d errors=%d\n",
		cnt.established.Load(), cnt.rejected.Load(), cnt.terminated.Load(), cnt.gone.Load(),
		cnt.failed.Load(), cnt.repaired.Load(), cnt.conflicts.Load(), cnt.errors.Load())
	fmt.Printf("resilience: retries=%d honored_hints=%d giveups=%d failovers_survived=%d\n",
		cnt.retries.Load(), cnt.hints.Load(), cnt.giveups.Load(), cnt.failovers.Load())
	d := lat.d
	// An empty digest reports NaN quantiles; render "n/a" instead of a
	// bogus 0.00ms (Mean/Max return 0 when empty, equally misleading).
	ms := func(seconds float64) string {
		if d.N() == 0 || math.IsNaN(seconds) {
			return "n/a"
		}
		return fmt.Sprintf("%.2fms", seconds*1e3)
	}
	fmt.Printf("latency: mean=%s p50=%s p90=%s p99=%s max=%s (n=%d)\n",
		ms(d.Mean()), ms(d.P50()), ms(d.P90()), ms(d.P99()), ms(d.Max()), d.N())
	for m := range msgs {
		fmt.Printf("first errors: %s\n", m)
	}

	// After a failover drill the first endpoint may be dead; report from
	// the first one that still answers.
	reportAddr := *addr
	for _, e := range endpoints {
		if _, _, _, err := doJSON(client, "GET", e+"/healthz", nil, nil); err == nil {
			reportAddr = e
			break
		}
	}
	if err := fetchStats(client, reportAddr, sv, &st); err != nil {
		return fmt.Errorf("final stats: %w", err)
	}
	fmt.Printf("server: alive=%d unprotected=%d avg_bw=%.1fKbps reject_rate=%.3f failed_links=%v\n",
		st.Alive, st.Unprotected, st.AvgBandwidthKbps, st.RejectRate, st.FailedLinks)

	if probe != nil {
		probe.halt()
		if err := probe.report(st.AvgBandwidthKbps, *forecastMaxRelErr); err != nil {
			return err
		}
	}

	var inv struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if _, _, _, err := doJSON(client, "GET", reportAddr+"/v1/invariants", nil, &inv); err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	if !inv.OK {
		return fmt.Errorf("server invariants dirty: %s", inv.Error)
	}
	fmt.Println("server invariants: clean")

	// Acked-write durability audit: every establish the server acknowledged
	// (and the run did not terminate) must still be alive on the surviving
	// endpoint. Only meaningful with no link faults (a fault legitimately
	// drops connections without telling their owner) and more than one
	// endpoint (the single-endpoint case has nothing to fail over to).
	if *faultFrac == 0 && len(endpoints) > 1 {
		verified, lost := 0, 0
		var lostSample []string
		for _, wk := range wks {
			for id, rid := range wk.ledger {
				var cs struct {
					Alive bool `json:"alive"`
				}
				code, _, _, err := doJSON(client, "GET", reportAddr+fmt.Sprintf("/v1/connections/%d", id), nil, &cs)
				if err != nil { // one retry on a transient transport error
					code, _, _, err = doJSON(client, "GET", reportAddr+fmt.Sprintf("/v1/connections/%d", id), nil, &cs)
				}
				if err == nil && code == http.StatusOK && cs.Alive {
					verified++
					continue
				}
				lost++
				if len(lostSample) < 5 {
					lostSample = append(lostSample, fmt.Sprintf("conn %d (request %s, status %d, err %v)", id, rid, code, err))
				}
			}
		}
		fmt.Printf("acked ledger: verified=%d acked_lost=%d\n", verified, lost)
		if lost > 0 {
			for _, s := range lostSample {
				fmt.Printf("acked_lost: %s\n", s)
			}
			return fmt.Errorf("%d acknowledged connections lost", lost)
		}
	}
	if n := cnt.errors.Load(); n > 0 {
		return fmt.Errorf("%d request errors", n)
	}
	return nil
}

// worker is one closed-loop client: it owns the connections it established
// and at most one injected link fault at a time (so faults always pair with
// repairs and never leave the topology degraded at exit).
type worker struct {
	client *http.Client
	// endpoints is the replica set; epi points at the one currently in
	// use, rotated on transport failures so a dead primary's workers find
	// the promoted standby.
	endpoints           []string
	epi                 int
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
	lat                 *latencies
	owned               []int64
	failedLink          int
	view                *shardView
	crossFrac           float64
	// ledger records every establish the server acknowledged and the run
	// still owns (terminates remove entries), keyed by connection ID with
	// the X-Request-ID that created it. After a failover drill, main
	// verifies every entry survived on the promoted endpoint.
	ledger map[int64]string
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
	a, b := w.pickPair()
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
		w.ledger[resp.ID] = rid
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
		delete(w.ledger, id)
		return nil
	case code == http.StatusNotFound: // dropped by a fault in the meantime
		w.cnt.gone.Add(1)
		delete(w.ledger, id)
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
// errors (including the connection-refused/reset burst of a primary dying
// mid-failover), 503s (degraded or overloaded server) and 429s (rate
// limit) are retried with capped exponential backoff and full jitter; once
// the budget is spent the request is counted as a give-up and surfaces as
// an error. A transport failure also rotates the worker to the next
// configured endpoint, so a killed primary's workers land on the promoted
// standby; a request that then succeeds counts as a survived failover.
// When the refusal carries a Retry-After hint, the worker sleeps for the
// hinted time instead of its own backoff guess — the server knows how long
// its own recovery takes.
func (w *worker) timed(method, path string, body, out any, hdrs ...string) (int, error) {
	backoff := w.retryBase
	transportRetried := false
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		code, retryAfter, hinted, err := doJSON(w.client, method, w.endpoints[w.epi]+path, body, out, hdrs...)
		w.lat.observe(time.Since(t0).Seconds())
		if err == nil && code != http.StatusServiceUnavailable && code != http.StatusTooManyRequests {
			if transportRetried {
				w.cnt.failovers.Add(1)
			}
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
		if err != nil || code == http.StatusServiceUnavailable {
			// Rotate on transport failure AND on 503: a lease-fenced
			// ex-primary answers 503 while the promoted standby serves —
			// sitting on the fenced node would burn the whole retry budget
			// there. Single-endpoint runs (the overload drill) just retry
			// in place.
			if err != nil {
				transportRetried = true
			}
			if len(w.endpoints) > 1 {
				w.epi = (w.epi + 1) % len(w.endpoints)
			}
		}
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
