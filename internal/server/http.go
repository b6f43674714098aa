package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drqos/internal/channel"
	"drqos/internal/forecast"
	"drqos/internal/manager"
	"drqos/internal/overload"
	"drqos/internal/qos"
	"drqos/internal/topology"
)

// EstablishRequest is the JSON body of POST /v1/connections. A fully zero
// QoS block selects qos.DefaultSpec (the paper's 100..500 Kb/s, Δ=50).
type EstablishRequest struct {
	Src           int     `json:"src"`
	Dst           int     `json:"dst"`
	MinKbps       int64   `json:"min_kbps"`
	MaxKbps       int64   `json:"max_kbps"`
	IncrementKbps int64   `json:"increment_kbps"`
	Utility       float64 `json:"utility"`
}

// spec materializes the request's elastic QoS.
func (r EstablishRequest) spec() qos.ElasticSpec {
	if r.MinKbps == 0 && r.MaxKbps == 0 && r.IncrementKbps == 0 {
		s := qos.DefaultSpec()
		if r.Utility > 0 {
			s.Utility = r.Utility
		}
		return s
	}
	return qos.ElasticSpec{
		Min:       qos.Kbps(r.MinKbps),
		Max:       qos.Kbps(r.MaxKbps),
		Increment: qos.Kbps(r.IncrementKbps),
		Utility:   r.Utility,
	}
}

// EstablishResponse summarizes an admitted connection. Cross and Shard are
// the sharded plane's and a single server leaves both out: Shard names the
// shard that owns the connection, -1 for a cross-shard one, which reports
// only its rigid allocation and global hop count.
type EstablishResponse struct {
	ID                int64 `json:"id"`
	Level             int   `json:"level"`
	BandwidthKbps     int64 `json:"bandwidth_kbps"`
	HasBackup         bool  `json:"has_backup"`
	PrimaryHops       int   `json:"primary_hops"`
	DirectlyChained   int   `json:"directly_chained"`
	IndirectlyChained int   `json:"indirectly_chained"`
	LevelChanges      int   `json:"level_changes"`
	Cross             bool  `json:"cross,omitempty"`
	Shard             *int  `json:"shard,omitempty"`
}

// EstablishAnswer summarizes an arrival report in the report's own IDs.
func EstablishAnswer(rep *manager.ArrivalReport) EstablishResponse {
	return EstablishResponse{
		ID:                int64(rep.Conn.ID),
		Level:             rep.Conn.Level,
		BandwidthKbps:     int64(rep.Conn.Bandwidth()),
		HasBackup:         rep.Conn.HasBackup,
		PrimaryHops:       rep.Conn.Primary.Hops(),
		DirectlyChained:   len(rep.DirectlyChained),
		IndirectlyChained: len(rep.IndirectlyChained),
		LevelChanges:      len(rep.Changes),
	}
}

// TerminateResponse summarizes a released connection.
type TerminateResponse struct {
	ID           int64 `json:"id"`
	Affected     int   `json:"affected"`
	LevelChanges int   `json:"level_changes"`
}

// FaultRequest is the JSON body of POST /v1/faults/link. Action is "fail"
// (default) or "repair".
type FaultRequest struct {
	Link   int    `json:"link"`
	Action string `json:"action"`
}

// FaultResponse summarizes a fault-injection event.
type FaultResponse struct {
	Link        int     `json:"link"`
	Action      string  `json:"action"`
	Activated   []int64 `json:"activated,omitempty"`
	Dropped     []int64 `json:"dropped,omitempty"`
	Recovered   []int64 `json:"recovered,omitempty"`
	BackupsLost []int64 `json:"backups_lost,omitempty"`
	Squeezed    int     `json:"squeezed"`
	Reprotected int     `json:"reprotected"`
}

// ErrorBody is the JSON error envelope. RetryAfterSeconds mirrors the
// Retry-After header on 429/503 shed responses.
type ErrorBody struct {
	Error             string `json:"error"`
	Rejected          bool   `json:"rejected,omitempty"`
	RetryAfterSeconds int64  `json:"retry_after_seconds,omitempty"`
}

// Plane is the admission plane behind the HTTP API: one *Server, or a shard
// coordinator (internal/shard). Each method answers one route in the
// plane's own connection IDs; NewHandler owns the rest — the rate limit,
// the body cap, decoding, the status mapping and the JSON envelope — so
// every route is stated once, whatever plane it serves.
type Plane interface {
	// Admit answers POST /v1/connections.
	Admit(ctx context.Context, src, dst topology.NodeID, spec qos.ElasticSpec) (EstablishResponse, error)
	// Terminate answers DELETE /v1/connections/{id}.
	Terminate(ctx context.Context, id channel.ConnID) (*manager.TerminationReport, error)
	// FailLink and RepairLink answer POST /v1/faults/link.
	FailLink(ctx context.Context, l topology.LinkID) (*manager.FailureReport, error)
	RepairLink(ctx context.Context, l topology.LinkID) (int, error)
	// StatsAnswer answers GET /v1/stats (a Stats or a ShardedStats) and,
	// rendered as Prometheus text, GET /metrics.
	StatsAnswer() any
	// Invariants answers GET /v1/invariants: the body, whose "ok" picks 200
	// or 500, or the error of a plane that cannot audit.
	Invariants(ctx context.Context) (map[string]any, error)
	// Readiness answers GET /readyz: the body, and how long a plane that
	// is not ready asks probes to wait (0 when ready).
	Readiness() (map[string]any, time.Duration)
}

// Admit establishes a connection and answers it.
func (s *Server) Admit(ctx context.Context, src, dst topology.NodeID, spec qos.ElasticSpec) (EstablishResponse, error) {
	rep, err := s.Establish(ctx, src, dst, spec)
	if err != nil {
		return EstablishResponse{}, err
	}
	return EstablishAnswer(rep), nil
}

// StatsAnswer is StatsView as the GET /v1/stats answer.
func (s *Server) StatsAnswer() any { return s.StatsView() }

// Readiness reports not ready while the server is degraded, recovering,
// overloaded or fenced.
func (s *Server) Readiness() (map[string]any, time.Duration) {
	degraded, reason := s.Degraded()
	recovering, _, _, _ := s.RecoveryStatus()
	overloaded := s.Overloaded()
	// A primary whose replication lease lapsed is fenced: it refuses
	// mutations, so a load balancer must stop routing writes to it.
	leaseLost := false
	if rb := s.replicaBlock(); rb != nil && rb.LeaseLost {
		leaseLost = true
	}
	// Role rides readiness so a load balancer (and a failover test)
	// can tell a ready read-only follower from the mutation-serving
	// primary without a second request.
	body := map[string]any{
		"ready":      !degraded && !recovering && !overloaded && !leaseLost,
		"degraded":   degraded,
		"recovering": recovering,
		"overloaded": overloaded,
		"role":       s.Role(),
	}
	if leaseLost {
		body["lease_lost"] = true
	}
	if reason != "" {
		body["degraded_reason"] = reason
	}
	if degraded || recovering || overloaded || leaseLost {
		return body, s.detector.RetryAfter()
	}
	return body, 0
}

// HandlerOption customizes a front end (NewHandler, shard.NewHandler).
type HandlerOption func(*front)

// front is what every route shares, whatever plane sits behind it: the
// per-client rate limit and the pprof mount.
type front struct {
	limiter     *overload.Limiter
	pprof       bool
	rateLimited atomic.Int64
}

// maxBodyBytes caps request bodies on the mutation endpoints; an oversized
// body answers 413.
const maxBodyBytes = 1 << 20

// WithRateLimit adds per-client token-bucket rate limiting to the mutation
// endpoints: each client (X-Client-ID header, else remote host) gets rate
// requests/second with bursts of burst; beyond that, 429 + Retry-After.
// rate <= 0 disables limiting.
func WithRateLimit(rate, burst float64) HandlerOption {
	return func(f *front) {
		if rate > 0 {
			f.limiter = overload.NewLimiter(rate, burst)
		}
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ so overload
// investigations can pull CPU/heap/goroutine profiles from a live daemon.
func WithPprof() HandlerOption {
	return func(f *front) { f.pprof = true }
}

// decodeBody reads a JSON body under the size cap; a limit overrun answers
// 413, malformed JSON 400. Returns false when a response was already
// written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteJSON(w, http.StatusRequestEntityTooLarge,
				ErrorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// pathID parses the {id} of a connection route; a malformed one answers
// 400. Returns false when a response was already written.
func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad connection id: " + err.Error()})
		return 0, false
	}
	return id, true
}

// admitClient enforces the per-client token bucket on mutating endpoints.
// Returns false when the request was already answered 429.
func (f *front) admitClient(w http.ResponseWriter, r *http.Request) bool {
	if f.limiter == nil {
		return true
	}
	key := r.Header.Get("X-Client-ID")
	if key == "" {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			key = host
		} else {
			key = r.RemoteAddr
		}
	}
	ok, retry := f.limiter.Allow(key, time.Now())
	if ok {
		return true
	}
	f.rateLimited.Add(1)
	WriteShed(w, http.StatusTooManyRequests, retry,
		fmt.Sprintf("client %q over rate limit", key))
	return false
}

// writeMetrics appends the front end's own counters to a /metrics answer.
func (f *front) writeMetrics(w io.Writer) {
	if f.limiter == nil {
		return
	}
	fmt.Fprintf(w, "# HELP drqos_rate_limited_total Requests refused by the per-client token bucket.\n# TYPE drqos_rate_limited_total counter\ndrqos_rate_limited_total %d\n",
		f.rateLimited.Load())
	fmt.Fprintf(w, "# HELP drqos_rate_limit_clients Client buckets currently tracked.\n# TYPE drqos_rate_limit_clients gauge\ndrqos_rate_limit_clients %d\n",
		f.limiter.Clients())
}

// NewHandler returns the HTTP/JSON API over p, on a mux a plane's own
// routes may join (shard.NewHandler adds GET /v1/shards):
//
//	POST   /v1/connections        admit a DR-connection
//	DELETE /v1/connections/{id}   terminate a DR-connection
//	GET    /v1/connections/{id}   one connection's status
//	POST   /v1/faults/link        fail or repair a link
//	GET    /v1/forecast           the live analytic forecast
//	POST   /v1/forecast/whatif    the forecast for an added population
//	POST   /v1/admin/recover      rebuild from the journal, exit degraded mode
//	GET    /v1/stats              consistent service snapshot
//	GET    /v1/invariants         run the manager's consistency audit
//	GET    /metrics               Prometheus text metrics
//	GET    /healthz               liveness: 200 while the process serves
//	GET    /readyz                readiness: 503 while degraded, recovering,
//	                              overloaded or fenced
//
// The point read, recovery and the forecast need one server, its journal
// and its forecaster: any other plane answers them 501. Overload semantics
// are the plane's own: while a server's sustained-queue-delay detector is
// latched, it refuses new capacity-consuming work (establish, link fail)
// with ErrOverloaded, which answers 503 with a Retry-After hint;
// terminations, repairs and every read stay live. With WithRateLimit, each
// client is additionally token-bucket limited on the mutation endpoints
// (429 + Retry-After).
func NewHandler(p Plane, opts ...HandlerOption) *http.ServeMux {
	f := &front{}
	for _, o := range opts {
		o(f)
	}
	mux := http.NewServeMux()
	s, _ := p.(*Server)
	// unsupported answers 501 on a route only one server serves.
	unsupported := func(w http.ResponseWriter) bool {
		if s != nil {
			return false
		}
		writeError(w, fmt.Errorf("%w by a sharded plane", errors.ErrUnsupported))
		return true
	}

	mux.HandleFunc("POST /v1/connections", func(w http.ResponseWriter, r *http.Request) {
		var req EstablishRequest
		if !f.admitClient(w, r) || !decodeBody(w, r, &req) {
			return
		}
		resp, err := p.Admit(r.Context(), topology.NodeID(req.Src), topology.NodeID(req.Dst), req.spec())
		if err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusCreated, resp)
	})
	mux.HandleFunc("DELETE /v1/connections/{id}", func(w http.ResponseWriter, r *http.Request) {
		// Terminations stay admitted under overload: freeing capacity is
		// the way out. Only the per-client limiter applies.
		if !f.admitClient(w, r) {
			return
		}
		id, ok := pathID(w, r)
		if !ok {
			return
		}
		rep, err := p.Terminate(r.Context(), channel.ConnID(id))
		if err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, TerminateResponse{
			ID:           id,
			Affected:     len(rep.Affected),
			LevelChanges: len(rep.Changes),
		})
	})
	mux.HandleFunc("GET /v1/connections/{id}", func(w http.ResponseWriter, r *http.Request) {
		// Point lookup for one connection — how a client verifies that an
		// acknowledged connection survived a restart or a failover.
		id, ok := pathID(w, r)
		if !ok || unsupported(w) {
			return
		}
		st, err := s.ConnStatus(r.Context(), channel.ConnID(id))
		if err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/faults/link", func(w http.ResponseWriter, r *http.Request) {
		var req FaultRequest
		if !f.admitClient(w, r) || !decodeBody(w, r, &req) {
			return
		}
		switch req.Action {
		case "", "fail":
			rep, err := p.FailLink(r.Context(), topology.LinkID(req.Link))
			if err != nil {
				writeError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, FaultResponse{
				Link:        req.Link,
				Action:      "fail",
				Activated:   connIDs(rep.Activated),
				Dropped:     connIDs(rep.Dropped),
				Recovered:   connIDs(rep.Recovered),
				BackupsLost: connIDs(rep.BackupsLost),
				Squeezed:    len(rep.Squeezed),
			})
		case "repair":
			restored, err := p.RepairLink(r.Context(), topology.LinkID(req.Link))
			if err != nil {
				writeError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, FaultResponse{
				Link: req.Link, Action: "repair", Reprotected: restored,
			})
		default:
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("unknown action %q", req.Action)})
		}
	})
	// forecaster answers the forecast routes' refusals: 501 off a single
	// server, 404 on one that runs no forecast.
	forecaster := func(w http.ResponseWriter) *forecast.Forecaster {
		if unsupported(w) {
			return nil
		}
		fc := s.Forecaster()
		if fc == nil {
			WriteJSON(w, http.StatusNotFound,
				ErrorBody{Error: "forecasting disabled (start the daemon with -forecast-interval > 0)"})
		}
		return fc
	}
	mux.HandleFunc("GET /v1/forecast", func(w http.ResponseWriter, r *http.Request) {
		fc := forecaster(w)
		if fc == nil {
			return
		}
		// Reads the lock-free published pointer — never touches the actor
		// loop, so the forecast stays available under overload, degraded
		// mode and even after shutdown.
		cur := fc.Current()
		if cur == nil {
			_, _, lastErr := fc.Status()
			if lastErr == "" {
				lastErr = "no solve attempted yet"
			}
			WriteJSON(w, http.StatusOK, ForecastEnvelope{Available: false, Reason: lastErr})
			return
		}
		WriteJSON(w, http.StatusOK, ForecastEnvelope{
			Available:         true,
			AgeSeconds:        time.Since(cur.SolvedAt).Seconds(),
			PredictedOverload: fc.Predicted(),
			Forecast:          cur,
		})
	})
	mux.HandleFunc("POST /v1/forecast/whatif", func(w http.ResponseWriter, r *http.Request) {
		var req forecast.WhatIfRequest
		fc := forecaster(w)
		if fc == nil || !decodeBody(w, r, &req) {
			return
		}
		resp, err := fc.WhatIf(req)
		if err != nil {
			switch {
			case errors.Is(err, forecast.ErrNoForecast):
				WriteJSON(w, http.StatusConflict, ErrorBody{Error: err.Error()})
			default:
				WriteJSON(w, http.StatusUnprocessableEntity, ErrorBody{Error: err.Error()})
			}
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		// Served from the published epoch plus live overlays — no command is
		// queued, so stats stay fast (and available) no matter how deep the
		// consuming-lane backlog is, and exact as of the last applied
		// mutation.
		WriteJSON(w, http.StatusOK, p.StatsAnswer())
	})
	mux.HandleFunc("GET /v1/invariants", func(w http.ResponseWriter, r *http.Request) {
		// The audit answers verdict, fingerprint and journal position of one
		// instant, so an operator (or a test) can compare two replicas
		// bit-for-bit at a sequence number without waiting for either to go
		// quiet.
		body, err := p.Invariants(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		code := http.StatusOK
		if body["ok"] != true {
			code = http.StatusInternalServerError
		}
		WriteJSON(w, code, body)
	})
	mux.HandleFunc("POST /v1/admin/recover", func(w http.ResponseWriter, r *http.Request) {
		if unsupported(w) {
			return
		}
		seq, err := s.Recover(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"recovered": true, "journal_seq": seq})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Scrapes ride the epoch view: a wedged or saturated actor loop can
		// no longer take monitoring down with it.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, p.StatsAnswer())
		f.writeMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and the mux is answering. Degraded
		// and overloaded servers are still alive — restarting them would
		// only lose state, so this never goes red while serving.
		WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		body, wait := p.Readiness()
		if wait > 0 {
			w.Header().Set("Retry-After", strconv.FormatInt(int64(wait/time.Second), 10))
			WriteJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		WriteJSON(w, http.StatusOK, body)
	})
	if f.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func connIDs(ids []channel.ConnID) []int64 {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// WriteJSON answers code with v as indented JSON: the bytes of
// json.MarshalIndent(v, "", "  ") plus a newline, sent with a Content-Length.
// Every JSON answer of the API leaves through here. If v cannot be marshalled
// the status is still written, with an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	js := jsonPool.Get().(*jsonScratch)
	defer js.release()
	body, _ := js.render(v) // nil on a marshal error: the status goes out alone
	WriteJSONBytes(w, code, body)
}

// RenderJSON returns the body WriteJSON would answer for v, for an answer
// that never changes and so is rendered once.
func RenderJSON(v any) ([]byte, error) {
	js := jsonPool.Get().(*jsonScratch)
	defer js.release()
	body, err := js.render(v)
	return bytes.Clone(body), err
}

// WriteJSONBytes answers code with a body RenderJSON produced.
func WriteJSONBytes(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// jsonScratch is one answer's working memory: encoding/json writes the
// compact form into compact, appendIndented re-indents it into out.
type jsonScratch struct {
	compact bytes.Buffer
	enc     *json.Encoder
	out     []byte
}

// maxPooledJSON caps the buffers a pooled jsonScratch keeps, so one huge
// answer does not pin its memory for the life of the process.
const maxPooledJSON = 256 << 10

var jsonPool = sync.Pool{New: func() any {
	js := new(jsonScratch)
	js.enc = json.NewEncoder(&js.compact)
	return js
}}

// render marshals v once and returns it indented, or nil and the marshal
// error. The result aliases js and is valid until js is released.
func (js *jsonScratch) render(v any) ([]byte, error) {
	js.compact.Reset()
	if err := js.enc.Encode(v); err != nil {
		return nil, err
	}
	compact := js.compact.Bytes()
	// Encode ends the value with a newline; the indented form keeps it.
	js.out = append(appendIndented(js.out[:0], compact[:len(compact)-1]), '\n')
	return js.out, nil
}

func (js *jsonScratch) release() {
	if js.compact.Cap() <= maxPooledJSON && cap(js.out) <= maxPooledJSON {
		jsonPool.Put(js)
	}
}

// appendIndented appends src to dst indented as json.Indent(dst, src, "",
// "  ") would. src must be compact JSON as encoding/json writes it — no
// whitespace outside strings — so the only state needed is whether a byte is
// inside a string and how deep the nesting is.
func appendIndented(dst, src []byte) []byte {
	depth, start := 0, 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			// Skip to the closing quote; a backslash escapes the byte after it.
			for i++; src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				i++ // an empty container stays on its line
				continue
			}
			depth++
			dst = appendNewline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case '}', ']':
			depth--
			dst = appendNewline(append(dst, src[start:i]...), depth)
			start = i
		case ',':
			dst = appendNewline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case ':':
			dst = append(append(dst, src[start:i+1]...), ' ')
			start = i + 1
		}
	}
	return append(dst, src[start:]...)
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// WriteShed answers a load-shedding refusal (429 rate limit, 503 overload)
// with a Retry-After header and a matching JSON hint, so clients back off
// for the right amount of time instead of guessing.
func WriteShed(w http.ResponseWriter, code int, retryAfter time.Duration, msg string) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	WriteJSON(w, code, ErrorBody{Error: msg, RetryAfterSeconds: secs})
}

// writeError maps typed service errors onto HTTP status codes.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, manager.ErrRejected):
		WriteJSON(w, http.StatusConflict, ErrorBody{Error: err.Error(), Rejected: true})
	case errors.Is(err, qos.ErrInvalidSpec):
		WriteJSON(w, http.StatusUnprocessableEntity, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrNotFound):
		WriteJSON(w, http.StatusNotFound, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrConflict):
		WriteJSON(w, http.StatusConflict, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrNotPrimary), errors.Is(err, ErrFenced), errors.Is(err, ErrUnavailable):
		// Retryable: during failover the client's next attempt (after the
		// hint, or via the front layer's 307) lands on the new primary —
		// or back here once a fenced primary's lease renews, or a
		// suspected shard answers again.
		WriteShed(w, http.StatusServiceUnavailable, time.Second, err.Error())
	case errors.Is(err, ErrOverloaded):
		WriteShed(w, http.StatusServiceUnavailable, time.Second, err.Error())
	case errors.Is(err, ErrDegraded):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrNotDegraded), errors.Is(err, ErrRecoveryInProgress), errors.Is(err, ErrNoJournal):
		WriteJSON(w, http.StatusConflict, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrServerClosed):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	case errors.Is(err, errors.ErrUnsupported):
		WriteJSON(w, http.StatusNotImplemented, ErrorBody{Error: err.Error()})
	default:
		WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
	}
}
