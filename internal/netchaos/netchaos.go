// Package netchaos is a deterministic, in-process flaky network: a seeded
// fault-injection layer that sits between cluster members (the replica
// stream's HTTP client, the shard coordinator's phase calls) and injects
// delay, drop, duplication and full or asymmetric partitions per
// (src,dst) pair.
//
// The model is message-level and direction-aware:
//
//   - DropRequest: the request never reaches dst. The caller observes what
//     a real partition produces — silence — so a dropped message stalls
//     until the caller's context deadline fires. Nothing happens on the
//     far side.
//   - DropResponse: the request IS delivered and its side effects happen,
//     but the reply is lost. The caller observes the same silence while
//     the far side has already done the work — the half-open case that
//     flushes out non-idempotent retries and split-brain acks.
//   - Duplicate: the request is delivered twice (at-least-once delivery).
//   - DelayMin/DelayMax: per-message latency, uniformly jittered. Because
//     concurrent messages draw independent delays, jitter doubles as
//     reordering.
//
// Streams — a request whose body or answer keeps flowing after the
// response headers, like the replica stream — are held to the rule on
// every read of either body, not only when they open. Once a drop fires on
// an open stream it stalls in both directions, the way a one-way packet
// loss stalls a TCP connection, until the rules change (SetRule, Heal) or
// the caller gives up; delays apply per read, in order.
//
// A symmetric partition between A and B is DropRequest=1 on both
// directions; an asymmetric one sets it on a single direction. All
// randomness comes from one seeded internal/rng source, so a chaos episode
// replays the same fault pattern for the same seed and message order.
//
// Two integration surfaces:
//
//   - Transport(src, dst, base) wraps an http.RoundTripper — plug it into
//     an http.Client to make every request from src to dst traverse the
//     flaky network (the replica follower's stream and snapshot fetch).
//   - Do(ctx, src, dst, call) wraps an in-process call the same way — the
//     shard coordinator's prepare/commit/abort phases use it via the
//     coordinator's Invoke hook.
//
// Episodes drive it by installing rules (SetRule) and clearing them all
// (Heal) at points of their own scripts.
package netchaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"drqos/internal/rng"
)

// Rule is the fault profile of one directed (src,dst) pair. The zero Rule
// passes traffic through untouched.
type Rule struct {
	// DropRequest is the probability the request never reaches dst; the
	// caller stalls until its context deadline (silence, like a real
	// partition).
	DropRequest float64
	// DropResponse is the probability the request is delivered — side
	// effects happen on dst — but the reply is lost; the caller stalls and
	// then fails exactly as for DropRequest, without learning the outcome.
	DropResponse float64
	// Duplicate is the probability the request is delivered twice.
	Duplicate float64
	// DelayMin/DelayMax bound the per-message latency, uniformly jittered
	// within the range (also the reordering knob for concurrent messages).
	DelayMin, DelayMax time.Duration
}

// Network is the fault plane. One Network is shared by every transport and
// hook of an episode so a single seed governs all decisions.
type Network struct {
	mu    sync.Mutex
	src   *rng.Source
	rules map[[2]string]Rule

	// Counters for assertions: messages dropped per directed pair.
	dropped map[[2]string]int
	// changed is closed and replaced whenever the rules change, waking
	// stalled streams to look again.
	changed chan struct{}
}

// New builds a quiet network (no rules, everything passes) seeded for
// reproducible fault decisions.
func New(seed uint64) *Network {
	return &Network{
		src:     rng.New(seed),
		rules:   make(map[[2]string]Rule),
		dropped: make(map[[2]string]int),
		changed: make(chan struct{}),
	}
}

// SetRule installs (replaces) the fault profile of the directed pair.
func (nw *Network) SetRule(src, dst string, r Rule) {
	nw.mu.Lock()
	nw.rules[[2]string{src, dst}] = r
	nw.changedLocked()
	nw.mu.Unlock()
}

// Heal clears every rule.
func (nw *Network) Heal() {
	nw.mu.Lock()
	nw.rules = make(map[[2]string]Rule)
	nw.changedLocked()
	nw.mu.Unlock()
}

func (nw *Network) changedLocked() {
	close(nw.changed)
	nw.changed = make(chan struct{})
}

// decision is one message's sampled fate.
type decision struct {
	delay        time.Duration
	dropRequest  bool
	dropResponse bool
	duplicate    bool
}

// plan samples one message's fate under the pair's current rule. All
// randomness is consumed here, under the lock, in message order.
func (nw *Network) plan(src, dst string) decision {
	d, _ := nw.planWatch(src, dst)
	return d
}

// planWatch is plan, and also the channel that closes when the rule it
// sampled changes.
func (nw *Network) planWatch(src, dst string) (decision, <-chan struct{}) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r, ok := nw.rules[[2]string{src, dst}]
	if !ok {
		return decision{}, nw.changed
	}
	var d decision
	if r.DelayMax > r.DelayMin {
		d.delay = r.DelayMin + time.Duration(nw.src.Float64()*float64(r.DelayMax-r.DelayMin))
	} else {
		d.delay = r.DelayMin
	}
	if r.DropRequest > 0 && nw.src.Float64() < r.DropRequest {
		d.dropRequest = true
	} else if r.DropResponse > 0 && nw.src.Float64() < r.DropResponse {
		d.dropResponse = true
	} else if r.Duplicate > 0 && nw.src.Float64() < r.Duplicate {
		d.duplicate = true
	}
	if d.dropRequest || d.dropResponse {
		nw.dropped[[2]string{src, dst}]++
	}
	return d, nw.changed
}

// stall blocks like a lost message: until the context deadline when there
// is one, or a bounded fallback so deadline-free callers cannot wedge.
func stall(ctx context.Context, src, dst string) error {
	if _, ok := ctx.Deadline(); ok {
		<-ctx.Done()
		return fmt.Errorf("netchaos: message %s->%s dropped: %w", src, dst, ctx.Err())
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("netchaos: message %s->%s dropped: %w", src, dst, ctx.Err())
	case <-time.After(2 * time.Second):
		return fmt.Errorf("netchaos: message %s->%s dropped (no deadline on caller)", src, dst)
	}
}

// sleep waits d or until ctx dies.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do routes one in-process call through the flaky network: delay first,
// then either silence (request dropped — call never runs), delivery
// (possibly twice), or delivery whose outcome is discarded (response
// dropped — the caller fails without learning the side effects happened).
func (nw *Network) Do(ctx context.Context, src, dst string, call func(ctx context.Context) error) error {
	d := nw.plan(src, dst)
	if err := sleep(ctx, d.delay); err != nil {
		return err
	}
	if d.dropRequest {
		return stall(ctx, src, dst)
	}
	err := call(ctx)
	if d.duplicate {
		// Second delivery of the same request: side effects may run twice.
		_ = call(ctx)
	}
	if d.dropResponse {
		return stall(ctx, src, dst)
	}
	return err
}

// Transport wraps base (nil means http.DefaultTransport) so every request
// through it traverses the flaky network as one src->dst message, and
// every later read of its request or response body as one more.
func (nw *Network) Transport(src, dst string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{nw: nw, src: src, dst: dst, base: base}
}

type transport struct {
	nw       *Network
	src, dst string
	base     http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	d := t.nw.plan(t.src, t.dst)
	if err := sleep(ctx, d.delay); err != nil {
		return nil, err
	}
	if d.dropRequest {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, stall(ctx, t.src, t.dst)
	}
	sent := req
	if req.Body != nil && req.Body != http.NoBody {
		sent = req.Clone(ctx)
		sent.Body = t.body(ctx, req.Body)
	}
	resp, err := t.base.RoundTrip(sent)
	if err != nil {
		return nil, err
	}
	if d.duplicate && (req.Body == nil || req.GetBody != nil) {
		// Deliver the request a second time; the duplicate's response is
		// discarded (the network delivered twice, the client asked once).
		if dup, derr := cloneRequest(req); derr == nil {
			if r2, rerr := t.base.RoundTrip(dup); rerr == nil {
				_, _ = io.Copy(io.Discard, r2.Body)
				r2.Body.Close()
			}
		}
	}
	if d.dropResponse {
		// Closed, not drained: the answer of a stream never ends.
		resp.Body.Close()
		return nil, stall(ctx, t.src, t.dst)
	}
	resp.Body = t.body(ctx, resp.Body)
	return resp, nil
}

// body holds every read of an open request's body to the pair's rule.
func (t *transport) body(ctx context.Context, rc io.ReadCloser) io.ReadCloser {
	return &streamBody{ReadCloser: rc, t: t, ctx: ctx, closed: make(chan struct{})}
}

type streamBody struct {
	io.ReadCloser
	t      *transport
	ctx    context.Context
	once   sync.Once
	closed chan struct{}
}

// Read passes on what one read brought once the pair's rule lets it: a
// drop holds it until the rules change and let it through (the stall is
// the same whichever direction the rule names), the caller's context ends
// or the body closes — then it is lost; a delay holds it that long.
func (b *streamBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	for {
		d, changed := b.t.nw.planWatch(b.t.src, b.t.dst)
		if !d.dropRequest && !d.dropResponse {
			if serr := sleep(b.ctx, d.delay); serr != nil {
				return 0, serr
			}
			return n, err
		}
		select {
		case <-changed:
		case <-b.closed:
			return 0, fmt.Errorf("netchaos: stream %s->%s stalled, then closed", b.t.src, b.t.dst)
		case <-b.ctx.Done():
			return 0, fmt.Errorf("netchaos: stream %s->%s stalled: %w", b.t.src, b.t.dst, b.ctx.Err())
		}
	}
}

func (b *streamBody) Close() error {
	b.once.Do(func() { close(b.closed) })
	return b.ReadCloser.Close()
}

// cloneRequest rebuilds a re-sendable copy of req (body via GetBody).
func cloneRequest(req *http.Request) (*http.Request, error) {
	dup := req.Clone(req.Context())
	if req.Body != nil {
		if req.GetBody == nil {
			return nil, errors.New("netchaos: request body not replayable")
		}
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		dup.Body = body
	}
	return dup, nil
}
