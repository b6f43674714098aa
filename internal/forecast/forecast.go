// Package forecast is the live analytic control plane: it promotes the
// paper's Markov model (internal/markov) from offline batch experiments to
// a continuously running online forecaster inside the admission daemon.
//
// The Forecaster taps the server's real event stream — every accepted
// arrival, termination and link failure, observed from the actor loop
// goroutine — into the shared parameter estimator (internal/estimator), and
// re-solves the steady-state bandwidth distribution on a configurable
// cadence in its own supervised goroutine, strictly off the actor hot path.
// The solve is the one internal/core's restart model and cmd/drtrace use,
// markov.Solve over markov.Build(params) with restart rate μ/N̄, so a live
// daemon, a stored journal and the batch experiments disagree only by
// measurement noise, never by modeling choice. The modeled spec is
// qos.DefaultSpec() (100..500 Kb/s, Δ=50 → 9 states).
//
// # Staleness and fallback contract
//
// Readers always get the last successfully solved forecast, lock-free. When
// a solve fails (degenerate parameters, solver error) or overruns its
// deadline, the previous result is re-published with Stale=true and
// LastError set — the forecast degrades to "old but consistent" rather than
// disappearing or blocking. Before the first successful solve Current()
// returns nil and the HTTP layer reports available:false with the reason.
//
// # Predictive overload
//
// With Config.Predictive set, each successful solve compares the predicted
// mean bandwidth position against the saturation threshold and drives
// OnPredict — which the server wires into the overload detector's
// SetPredicted latch, pre-latching shedding before the reactive CoDel
// detector sees queue delay. A forecast that goes stale for more than
// staleClearAfter solve intervals releases the predictive latch: an old
// model must not keep refusing work the reactive detector would accept.
package forecast

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"drqos/internal/estimator"
	"drqos/internal/manager"
	"drqos/internal/markov"
	"drqos/internal/qos"
	"drqos/internal/stats"
)

// ErrNoForecast reports that no solve has succeeded yet.
var ErrNoForecast = errors.New("forecast: no forecast available yet")

// ErrSolveTimeout reports a solve that overran its deadline.
var ErrSolveTimeout = errors.New("forecast: solve exceeded deadline")

// errNotReady marks warm-up conditions — too few events, no standing
// population yet. Before the first good solve these are "not yet", reported
// as the unavailability reason but not counted as solve errors (an idle
// daemon ticking along is not a failing model). After a good solve exists,
// the same conditions follow the normal stale-fallback path.
var errNotReady = errors.New("forecast: not ready")

// staleClearAfter is how many solve intervals a forecast may stay stale
// before the predictive overload latch (if engaged) is released.
const staleClearAfter = 3

// saturationHeadroom is the normalized mean-bandwidth position
// (mean-Bmin)/(Bmax-Bmin) at or below which the model predicts saturation.
const saturationHeadroom = 0.05

// Config tunes the forecaster.
type Config struct {
	// Interval is the solve cadence (default 1s).
	Interval time.Duration
	// MinEvents is how many observed events (accepted arrivals +
	// terminations + failures) must accumulate before the first solve
	// (default 20): solving an empty estimator yields a degenerate chain.
	MinEvents int
	// Predictive enables the model-driven overload input: OnPredict fires
	// when predicted saturation flips.
	Predictive bool
	// CapacityKbps is the uniform link capacity, used by what-if
	// counterfactuals for the ideal-bandwidth reference (optional).
	CapacityKbps qos.Kbps
	// DirectedLinks is the topology's directed link count, used with
	// CapacityKbps for the ideal-bandwidth reference (optional).
	DirectedLinks int
	// OnPredict, when non-nil and Predictive is set, is called from the
	// solve goroutine each time the predicted-saturation state flips (the
	// forecaster logs the flip itself; the server sets this to drive its
	// overload detector).
	OnPredict func(saturated bool)

	// solveTimeout bounds one solve; overruns fall back to the last good
	// forecast. It is Interval, floored at 50ms, unless a test of this
	// package sets it.
	solveTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.solveTimeout <= 0 {
		c.solveTimeout = max(c.Interval, 50*time.Millisecond)
	}
	if c.MinEvents <= 0 {
		c.MinEvents = 20
	}
	return c
}

// Forecast is one published model solution. All exported fields are
// immutable after publication; readers share the struct.
type Forecast struct {
	// Seq increments on every successful solve.
	Seq int64 `json:"seq"`
	// SolvedAt is when the solve that produced Pi finished. Staleness age
	// is measured from it.
	SolvedAt time.Time `json:"solved_at"`
	// SolveDurationSeconds is how long that solve took.
	SolveDurationSeconds float64 `json:"solve_duration_seconds"`
	// WindowSeconds is the observation window the parameters were
	// estimated over (since forecaster start).
	WindowSeconds float64 `json:"window_seconds"`

	// Modeled grid.
	States        int   `json:"states"`
	MinKbps       int64 `json:"min_kbps"`
	MaxKbps       int64 `json:"max_kbps"`
	IncrementKbps int64 `json:"increment_kbps"`

	// Solution: the steady-state distribution over bandwidth states of the
	// restart model, its mean, and the birth distribution it restarts
	// into.
	Pi                []float64 `json:"pi"`
	BirthDist         []float64 `json:"birth_dist"`
	MeanBandwidthKbps float64   `json:"mean_bandwidth_kbps"`

	// Live-estimated parameters (rates are per second of wall clock).
	Lambda     float64 `json:"lambda_per_sec"`
	Mu         float64 `json:"mu_per_sec"`
	Gamma      float64 `json:"gamma_per_sec"`
	Delta      float64 `json:"delta_per_sec"`
	Pf         float64 `json:"pf"`
	Ps         float64 `json:"ps"`
	PfFail     float64 `json:"pf_fail"`
	DiscardedA float64 `json:"discarded_a"`
	DiscardedB float64 `json:"discarded_b"`
	DiscardedT float64 `json:"discarded_t"`
	AvgAlive   float64 `json:"avg_alive"`
	AvgHops    float64 `json:"avg_hops"`

	// Raw event counts behind the estimate.
	Accepted           int64 `json:"accepted"`
	Rejected           int64 `json:"rejected"`
	Terminated         int64 `json:"terminated"`
	LinkFailures       int64 `json:"link_failures"`
	IgnoredTransitions int64 `json:"ignored_transitions"`

	// Saturation: Headroom is the normalized mean position
	// (mean-Bmin)/(Bmax-Bmin); Saturated reports it at or below the
	// configured threshold (with a non-trivial population).
	Headroom  float64 `json:"headroom"`
	Saturated bool    `json:"saturated"`

	// Staleness/fallback contract: Stale marks a republished older result
	// after a failed or timed-out solve; LastError is that failure.
	Stale     bool   `json:"stale"`
	LastError string `json:"last_error,omitempty"`

	// Solve-loop counters at publication time.
	Solves      int64 `json:"solves"`
	SolveErrors int64 `json:"solve_errors"`

	// Inputs kept for what-if counterfactuals (not serialized).
	snap snapshot
	base *markov.Chain
}

// snapshot is a consistent copy of the collector state, taken under the
// collector mutex and handed to the solver.
type snapshot struct {
	params   markov.Params
	birth    []float64
	delta    float64
	avgAlive float64
	avgHops  float64
	elapsed  float64
	lambda   float64
	mu       float64
	gamma    float64
	pf       float64
	ps       float64
	pfFail   float64
	da       float64
	db       float64
	dt       float64
	accepted int64
	rejected int64
	term     int64
	failed   int64
	ignored  int64
}

// solved is a successful solve's raw output.
type solved struct {
	base *markov.Chain
	pi   []float64
	mean float64
}

// Forecaster owns the live estimator and the solve loop.
type Forecaster struct {
	cfg   Config
	spec  qos.ElasticSpec
	n     int
	start time.Time

	// Collector state, fed from the server's actor loop, snapshotted by
	// the solver. The mutex is held only for counter updates and the
	// (cheap) parameter assembly — never across a solve.
	mu       sync.Mutex
	est      *estimator.Estimator
	rejected int64
	alive    stats.TimeWeighted
	hopsSum  int64
	hopsN    int64

	// Publication: lock-free reads of the latest forecast.
	cur         atomic.Pointer[Forecast]
	seq         atomic.Int64
	solves      atomic.Int64
	solveErrors atomic.Int64
	lastErrMu   sync.Mutex
	lastErr     string
	predicted   atomic.Bool

	// solveMu serializes solve attempts (ticker loop vs SolveNow).
	solveMu sync.Mutex
	// solveFn computes a snapshot's solution; tests swap it to inject
	// failures and deadline overruns.
	solveFn func(snapshot) (*solved, error)

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// New builds a forecaster. Call Start to begin the periodic solve loop;
// SolveNow works without it (tests, tools). Every Config is valid: unset
// fields take their defaults.
func New(cfg Config) (*Forecaster, error) {
	spec := qos.DefaultSpec()
	f := &Forecaster{
		cfg:    cfg.withDefaults(),
		spec:   spec,
		n:      spec.States(),
		start:  time.Now(),
		est:    estimator.New(spec.States()),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	f.solveFn = f.solve
	return f, nil
}

// Start launches the periodic solve loop. It must be called at most once.
func (f *Forecaster) Start() {
	go f.loop()
}

// Stop halts the solve loop. Safe to call multiple times; idempotent. The
// current forecast stays readable after Stop.
func (f *Forecaster) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	<-f.done
}

func (f *Forecaster) loop() {
	defer close(f.done)
	t := time.NewTicker(f.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
			f.SolveNow()
		}
	}
}

// Observe folds one applied event into the live estimate (see
// estimator.Estimator.Observe). alivePrior is the population before the
// event. Called from the actor loop goroutine only.
func (f *Forecaster) Observe(m *manager.Manager, out manager.Outcome, alivePrior int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.est.Observe(m, out, alivePrior) {
		return
	}
	if a := out.Arrival; a != nil {
		f.hopsSum += int64(len(a.Conn.Primary.Links))
		f.hopsN++
	}
	f.alive.Observe(time.Since(f.start).Seconds(), float64(m.AliveCount()))
}

// ObserveReject counts a capacity rejection (admission-control visibility
// only; rejected arrivals do not enter the effective λ, matching the batch
// pipeline's effective-rate convention).
func (f *Forecaster) ObserveReject() {
	f.mu.Lock()
	f.rejected++
	f.mu.Unlock()
}

// Current returns the latest published forecast, or nil before the first
// successful solve. The returned struct is shared and must not be mutated.
func (f *Forecaster) Current() *Forecast { return f.cur.Load() }

// Predicted reports the current model-predicted saturation latch.
func (f *Forecaster) Predicted() bool { return f.predicted.Load() }

// Status returns the solve-loop counters and the most recent solve error
// (empty after a successful solve).
func (f *Forecaster) Status() (solves, solveErrors int64, lastErr string) {
	f.lastErrMu.Lock()
	lastErr = f.lastErr
	f.lastErrMu.Unlock()
	return f.solves.Load(), f.solveErrors.Load(), lastErr
}

// snapshotLocked assembles a solver input from the collector state. It
// returns an error when too little has been observed to solve.
func (f *Forecaster) snapshot() (snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var s snapshot
	accepted, terminated, failed := f.est.Counts()
	events := accepted + terminated + failed
	if events < int64(f.cfg.MinEvents) {
		return s, fmt.Errorf("%w: %d events observed, need %d", errNotReady, events, f.cfg.MinEvents)
	}
	s.elapsed = time.Since(f.start).Seconds()
	if s.elapsed <= 0 {
		return s, fmt.Errorf("%w: zero observation window", errNotReady)
	}
	s.lambda = float64(accepted) / s.elapsed
	s.mu = float64(terminated) / s.elapsed
	s.gamma = float64(failed) / s.elapsed
	aliveCopy := f.alive
	aliveCopy.CloseAt(s.elapsed)
	s.avgAlive = aliveCopy.Mean()
	if s.avgAlive <= 0 {
		return s, fmt.Errorf("%w: no standing population observed", errNotReady)
	}
	if s.birth = f.est.BirthDist(); s.birth == nil {
		return s, fmt.Errorf("%w: no accepted arrivals observed", errNotReady)
	}
	// Per-channel death rate: aggregate termination rate spread over the
	// standing population — the restart model's δ, exactly as the batch
	// pipeline (internal/core, RestartModel) derives it.
	s.delta = s.mu / s.avgAlive
	s.params = f.est.Params(s.lambda, s.mu, s.gamma)
	s.pf, s.ps, s.pfFail = f.est.Pf(), f.est.Ps(), f.est.PfFail()
	s.da, s.db, s.dt = f.est.Discarded()
	if f.hopsN > 0 {
		s.avgHops = float64(f.hopsSum) / float64(f.hopsN)
	}
	s.accepted, s.rejected, s.term, s.failed = accepted, f.rejected, terminated, failed
	s.ignored = f.est.Ignored()
	return s, nil
}

// solve runs the batch pipeline's restart-model solve on one snapshot.
func (f *Forecaster) solve(s snapshot) (*solved, error) {
	base, err := markov.Build(s.params)
	if err != nil {
		return nil, err
	}
	pi, mean, err := markov.Solve(base, s.birth, s.delta, f.spec)
	if err != nil {
		return nil, err
	}
	return &solved{base: base, pi: pi, mean: mean}, nil
}

// SolveNow runs one solve attempt synchronously and returns the published
// forecast (possibly a stale fallback) plus the attempt's error. The ticker
// loop calls it on every tick; tests and tools may call it directly.
func (f *Forecaster) SolveNow() (*Forecast, error) {
	f.solveMu.Lock()
	defer f.solveMu.Unlock()

	snap, err := f.snapshot()
	if err == nil {
		var sol *solved
		sol, err = f.solveWithDeadline(snap)
		if err == nil {
			f.publishGood(snap, sol)
		}
	}
	if err != nil {
		if errors.Is(err, errNotReady) && f.cur.Load() == nil {
			// Warm-up: report the reason without counting a solve error.
			f.lastErrMu.Lock()
			f.lastErr = err.Error()
			f.lastErrMu.Unlock()
		} else {
			f.publishFailure(err)
		}
	}
	cur := f.cur.Load()
	f.updatePredicted(cur)
	return cur, err
}

// solveWithDeadline runs solveFn in a helper goroutine and abandons it on
// deadline overrun (the goroutine finishes on its own; its result is
// discarded). The actor loop is never involved either way.
func (f *Forecaster) solveWithDeadline(s snapshot) (*solved, error) {
	type out struct {
		sol *solved
		err error
	}
	ch := make(chan out, 1)
	fn := f.solveFn // captured: the abandoned goroutine must not see later swaps
	go func() {
		sol, err := fn(s)
		ch <- out{sol, err}
	}()
	timer := time.NewTimer(f.cfg.solveTimeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.sol, o.err
	case <-timer.C:
		return nil, fmt.Errorf("%w (%v)", ErrSolveTimeout, f.cfg.solveTimeout)
	}
}

// publishGood swaps in a freshly solved forecast.
func (f *Forecaster) publishGood(s snapshot, sol *solved) {
	now := time.Now()
	f.solves.Add(1)
	headroom := 0.0
	if span := float64(f.spec.Max - f.spec.Min); span > 0 {
		headroom = (sol.mean - float64(f.spec.Min)) / span
	}
	fc := &Forecast{
		Seq:                f.seq.Add(1),
		SolvedAt:           now,
		WindowSeconds:      s.elapsed,
		States:             f.n,
		MinKbps:            int64(f.spec.Min),
		MaxKbps:            int64(f.spec.Max),
		IncrementKbps:      int64(f.spec.Increment),
		Pi:                 sol.pi,
		BirthDist:          s.birth,
		MeanBandwidthKbps:  sol.mean,
		Lambda:             s.lambda,
		Mu:                 s.mu,
		Gamma:              s.gamma,
		Delta:              s.delta,
		Pf:                 s.pf,
		Ps:                 s.ps,
		PfFail:             s.pfFail,
		DiscardedA:         s.da,
		DiscardedB:         s.db,
		DiscardedT:         s.dt,
		AvgAlive:           s.avgAlive,
		AvgHops:            s.avgHops,
		Accepted:           s.accepted,
		Rejected:           s.rejected,
		Terminated:         s.term,
		LinkFailures:       s.failed,
		IgnoredTransitions: s.ignored,
		Headroom:           headroom,
		Saturated:          headroom <= saturationHeadroom && s.avgAlive >= 1,
		Solves:             f.solves.Load(),
		SolveErrors:        f.solveErrors.Load(),
		snap:               s,
		base:               sol.base,
	}
	fc.SolveDurationSeconds = time.Since(now).Seconds()
	f.lastErrMu.Lock()
	f.lastErr = ""
	f.lastErrMu.Unlock()
	f.cur.Store(fc)
}

// publishFailure implements the fallback contract: keep serving the last
// good forecast, marked stale, with the failure attached.
func (f *Forecaster) publishFailure(err error) {
	f.solveErrors.Add(1)
	f.lastErrMu.Lock()
	f.lastErr = err.Error()
	f.lastErrMu.Unlock()
	prev := f.cur.Load()
	if prev == nil {
		return // nothing to fall back to; Current stays nil
	}
	stale := *prev
	stale.Stale = true
	stale.LastError = err.Error()
	stale.SolveErrors = f.solveErrors.Load()
	f.cur.Store(&stale)
}

// updatePredicted drives the predictive-overload output: latched while the
// freshest solve predicts saturation, released when it predicts headroom or
// when the forecast has been stale longer than staleClearAfter intervals.
func (f *Forecaster) updatePredicted(cur *Forecast) {
	if !f.cfg.Predictive {
		return
	}
	want := false
	if cur != nil && cur.Saturated {
		tooStale := cur.Stale && time.Since(cur.SolvedAt) > staleClearAfter*f.cfg.Interval
		want = !tooStale
	}
	if f.predicted.Swap(want) == want {
		return
	}
	slog.Info("forecast: predicted saturation flipped", "saturated", want)
	if f.cfg.OnPredict != nil {
		f.cfg.OnPredict(want)
	}
}
