package server

import (
	"bytes"
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

// Spec materializes the request's elastic QoS.
func (r EstablishRequest) Spec() qos.ElasticSpec {
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

// EstablishResponse summarizes an admitted connection.
type EstablishResponse struct {
	ID                int64 `json:"id"`
	Level             int   `json:"level"`
	BandwidthKbps     int64 `json:"bandwidth_kbps"`
	HasBackup         bool  `json:"has_backup"`
	PrimaryHops       int   `json:"primary_hops"`
	DirectlyChained   int   `json:"directly_chained"`
	IndirectlyChained int   `json:"indirectly_chained"`
	LevelChanges      int   `json:"level_changes"`
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

// HandlerOption customizes a front end (NewHandler, shard.NewHandler).
type HandlerOption func(*Front)

// Front is what every HTTP front end of the admission plane shares, whatever
// sits behind it — one server or a shard coordinator: the per-client rate
// limit, the request-body cap, the pprof mount and (with the Write*
// functions) the JSON and error envelope.
type Front struct {
	limiter      *overload.Limiter
	maxBodyBytes int64
	pprof        bool
	rateLimited  atomic.Int64
}

// NewFront applies opts over the defaults (no rate limit, 1 MiB bodies).
func NewFront(opts ...HandlerOption) *Front {
	f := &Front{maxBodyBytes: 1 << 20}
	for _, o := range opts {
		o(f)
	}
	return f
}

// WithRateLimit adds per-client token-bucket rate limiting to the mutation
// endpoints: each client (X-Client-ID header, else remote host) gets rate
// requests/second with bursts of burst; beyond that, 429 + Retry-After.
// rate <= 0 disables limiting.
func WithRateLimit(rate, burst float64) HandlerOption {
	return func(f *Front) {
		if rate > 0 {
			f.limiter = overload.NewLimiter(rate, burst)
		}
	}
}

// WithMaxBodyBytes caps request-body size on the mutation endpoints;
// oversized bodies answer 413. n <= 0 keeps the default (1 MiB).
func WithMaxBodyBytes(n int64) HandlerOption {
	return func(f *Front) {
		if n > 0 {
			f.maxBodyBytes = n
		}
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ so overload
// investigations can pull CPU/heap/goroutine profiles from a live daemon.
func WithPprof() HandlerOption {
	return func(f *Front) { f.pprof = true }
}

// DecodeBody reads a JSON body under the size cap; a limit overrun answers
// 413, malformed JSON 400. Returns false when a response was already
// written.
func (f *Front) DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, f.maxBodyBytes)
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

// AdmitClient enforces the per-client token bucket on mutating endpoints.
// Returns false when the request was already answered 429.
func (f *Front) AdmitClient(w http.ResponseWriter, r *http.Request) bool {
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

// WriteMetrics appends the front end's own counters to a /metrics answer.
func (f *Front) WriteMetrics(w io.Writer) {
	if f.limiter == nil {
		return
	}
	fmt.Fprintf(w, "# HELP drqos_rate_limited_total Requests refused by the per-client token bucket.\n# TYPE drqos_rate_limited_total counter\ndrqos_rate_limited_total %d\n",
		f.rateLimited.Load())
	fmt.Fprintf(w, "# HELP drqos_rate_limit_clients Client buckets currently tracked.\n# TYPE drqos_rate_limit_clients gauge\ndrqos_rate_limit_clients %d\n",
		f.limiter.Clients())
}

// MountDebug registers /debug/pprof/ on mux when WithPprof asked for it.
func (f *Front) MountDebug(mux *http.ServeMux) {
	if !f.pprof {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// NewHandler returns the HTTP/JSON API over s:
//
//	POST   /v1/connections        admit a DR-connection
//	DELETE /v1/connections/{id}   terminate a DR-connection
//	POST   /v1/faults/link        fail or repair a link
//	POST   /v1/admin/recover      rebuild from the journal, exit degraded mode
//	GET    /v1/stats              consistent service snapshot
//	GET    /v1/invariants         run the manager's consistency audit
//	GET    /metrics               Prometheus text metrics
//	GET    /healthz               liveness: 200 while the process serves
//	GET    /readyz                readiness: 503 while degraded, recovering
//	                              or overloaded
//
// Overload semantics: while the server's sustained-queue-delay detector is
// latched, new capacity-consuming work (establish, link fail) answers 503
// with a Retry-After hint; terminations, repairs and every read stay live.
// With WithRateLimit, each client is additionally token-bucket limited on
// the mutation endpoints (429 + Retry-After).
func NewHandler(s *Server, opts ...HandlerOption) http.Handler {
	f := NewFront(opts...)
	mux := http.NewServeMux()

	// shedIfOverloaded refuses new capacity-consuming work while the
	// overloaded state holds. Returns false when already answered 503.
	shedIfOverloaded := func(w http.ResponseWriter) bool {
		if !s.Overloaded() {
			return true
		}
		WriteShed(w, http.StatusServiceUnavailable, s.RetryAfterHint(), ErrOverloaded.Error())
		return false
	}

	mux.HandleFunc("POST /v1/connections", func(w http.ResponseWriter, r *http.Request) {
		if !f.AdmitClient(w, r) || !shedIfOverloaded(w) {
			return
		}
		var req EstablishRequest
		if !f.DecodeBody(w, r, &req) {
			return
		}
		rep, err := s.Establish(r.Context(), topology.NodeID(req.Src), topology.NodeID(req.Dst), req.Spec())
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusCreated, EstablishResponse{
			ID:                int64(rep.Conn.ID),
			Level:             rep.Conn.Level,
			BandwidthKbps:     int64(rep.Conn.Bandwidth()),
			HasBackup:         rep.Conn.HasBackup,
			PrimaryHops:       rep.Conn.Primary.Hops(),
			DirectlyChained:   len(rep.DirectlyChained),
			IndirectlyChained: len(rep.IndirectlyChained),
			LevelChanges:      len(rep.Changes),
		})
	})
	mux.HandleFunc("DELETE /v1/connections/{id}", func(w http.ResponseWriter, r *http.Request) {
		// Terminations stay admitted under overload: freeing capacity is
		// the way out. Only the per-client limiter applies.
		if !f.AdmitClient(w, r) {
			return
		}
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad connection id: " + err.Error()})
			return
		}
		rep, err := s.Terminate(r.Context(), channel.ConnID(id))
		if err != nil {
			WriteError(w, err)
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
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad connection id: " + err.Error()})
			return
		}
		st, err := s.ConnStatus(r.Context(), channel.ConnID(id))
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/faults/link", func(w http.ResponseWriter, r *http.Request) {
		if !f.AdmitClient(w, r) {
			return
		}
		var req FaultRequest
		if !f.DecodeBody(w, r, &req) {
			return
		}
		switch req.Action {
		case "", "fail":
			// Fail injection activates backups and squeezes peers —
			// capacity-consuming — so it is shed while overloaded.
			if !shedIfOverloaded(w) {
				return
			}
			rep, err := s.FailLink(r.Context(), topology.LinkID(req.Link))
			if err != nil {
				WriteError(w, err)
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
			restored, err := s.RepairLink(r.Context(), topology.LinkID(req.Link))
			if err != nil {
				WriteError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, FaultResponse{
				Link: req.Link, Action: "repair", Reprotected: restored,
			})
		default:
			WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("unknown action %q", req.Action)})
		}
	})
	mux.HandleFunc("GET /v1/forecast", func(w http.ResponseWriter, r *http.Request) {
		fc := s.Forecaster()
		if fc == nil {
			WriteJSON(w, http.StatusNotFound,
				ErrorBody{Error: "forecasting disabled (start the daemon with -forecast-interval > 0)"})
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
		fc := s.Forecaster()
		if fc == nil {
			WriteJSON(w, http.StatusNotFound,
				ErrorBody{Error: "forecasting disabled (start the daemon with -forecast-interval > 0)"})
			return
		}
		var req forecast.WhatIfRequest
		if !f.DecodeBody(w, r, &req) {
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
		WriteJSON(w, http.StatusOK, s.StatsView())
	})
	mux.HandleFunc("GET /v1/invariants", func(w http.ResponseWriter, r *http.Request) {
		// Audit answers verdict, fingerprint and journal position of one
		// instant, so an operator (or a test) can compare two replicas
		// bit-for-bit at a sequence number without waiting for either to go
		// quiet.
		seq, fingerprint, err := s.Audit(r.Context())
		degraded, reason := s.Degraded()
		if errors.Is(err, ErrServerClosed) {
			WriteError(w, err)
			return
		}
		// Degraded is sticky: a clean audit now does not un-corrupt the
		// event that tripped it, so the flag is reported either way.
		body := map[string]any{"ok": err == nil, "degraded": degraded, "degraded_reason": reason, "journal_seq": seq}
		if err != nil {
			body["error"] = err.Error()
			WriteJSON(w, http.StatusInternalServerError, body)
			return
		}
		body["fingerprint"] = fingerprint
		WriteJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("POST /v1/admin/recover", func(w http.ResponseWriter, r *http.Request) {
		seq, err := s.Recover(r.Context())
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"recovered": true, "journal_seq": seq})
	})
	mux.HandleFunc("POST /v1/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		// Manual failover: flip this follower to primary under a new fencing
		// term. The replica failover controller calls the same method on
		// sustained primary health-check failure.
		term, err := s.Promote(r.Context())
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"promoted": true, "term": term, "role": s.Role()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Scrapes ride the epoch view: a wedged or saturated actor loop can
		// no longer take monitoring down with it.
		st := s.StatsView()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, st)
		f.WriteMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and the mux is answering. Degraded
		// and overloaded servers are still alive — restarting them would
		// only lose state, so this never goes red while serving.
		WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
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
			w.Header().Set("Retry-After", strconv.FormatInt(int64(s.RetryAfterHint()/time.Second), 10))
			WriteJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		WriteJSON(w, http.StatusOK, body)
	})
	f.MountDebug(mux)
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

// WriteError maps typed service errors onto HTTP status codes.
func WriteError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, manager.ErrRejected):
		WriteJSON(w, http.StatusConflict, ErrorBody{Error: err.Error(), Rejected: true})
	case errors.Is(err, qos.ErrInvalidSpec):
		WriteJSON(w, http.StatusUnprocessableEntity, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrNotFound):
		WriteJSON(w, http.StatusNotFound, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrConflict):
		WriteJSON(w, http.StatusConflict, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrNotPrimary), errors.Is(err, ErrFenced):
		// Retryable: during failover the client's next attempt (after the
		// hint, or via the front layer's 307) lands on the new primary —
		// or back here once a fenced primary's lease renews.
		WriteShed(w, http.StatusServiceUnavailable, time.Second, err.Error())
	case errors.Is(err, ErrOverloaded):
		WriteShed(w, http.StatusServiceUnavailable, time.Second, err.Error())
	case errors.Is(err, ErrDegraded):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrNotDegraded), errors.Is(err, ErrRecoveryInProgress), errors.Is(err, ErrNoJournal):
		WriteJSON(w, http.StatusConflict, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrServerClosed):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	default:
		WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
	}
}
