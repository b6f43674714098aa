// Package forecast is the live analytic control plane: it promotes the
// paper's Markov model (internal/markov) from offline batch experiments to
// a continuously running online forecaster inside the admission daemon.
//
// The Forecaster taps the server's real event stream — every accepted
// arrival, termination and link failure, observed from the actor loop
// goroutine — into the shared parameter estimator (internal/estimator), and
// re-solves the steady-state bandwidth distribution on a configurable
// cadence in its own supervised goroutine, strictly off the actor hot path.
// The model and its solve are the ones internal/core and cmd/drtrace use,
// estimator.Model and Model.Solve, with rates per second of wall clock, so a
// live daemon, a stored journal and the batch experiments disagree only by
// measurement noise, never by modeling choice. The forecast serves the
// restart model's solution. The modeled spec is qos.DefaultSpec()
// (100..500 Kb/s, Δ=50 → 9 states).
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

// errNotReady marks warm-up conditions — too few events, no accepted
// arrival yet. Before the first good solve these are "not yet", reported
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

	// Modeled grid.
	States        int   `json:"states"`
	MinKbps       int64 `json:"min_kbps"`
	MaxKbps       int64 `json:"max_kbps"`
	IncrementKbps int64 `json:"increment_kbps"`

	// Solution: the steady-state distribution over bandwidth states of the
	// restart model, and its mean.
	Pi                []float64 `json:"pi"`
	MeanBandwidthKbps float64   `json:"mean_bandwidth_kbps"`

	// Model is the measured window the solve used, with rates per second
	// of wall clock since the forecaster started and N̄ the time-weighted
	// population.
	estimator.Model
	// AvgHops is accepted arrivals' mean primary route length, and
	// Rejected counts capacity rejections; neither enters the model.
	AvgHops  float64 `json:"avg_hops"`
	Rejected int64   `json:"rejected"`

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

	// chain is the solved paper chain, whose rates the Δ tuning reads.
	chain *markov.Chain
}

// Forecaster owns the live estimator and the solve loop.
type Forecaster struct {
	cfg   Config
	spec  qos.ElasticSpec
	n     int
	start time.Time

	// Collector state, fed from the server's actor loop and measured by
	// the solver. The mutex is held only for counter updates and the
	// (cheap) model assembly — never across a solve.
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
	// solveFn solves a measured model; tests swap it to inject failures
	// and deadline overruns.
	solveFn func(*estimator.Model) (*estimator.Solved, error)

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// New builds a forecaster. Call Start to begin the periodic solve loop;
// SolveNow works without it (tests, tools). Every Config is valid: unset
// fields take their defaults.
func New(cfg Config) *Forecaster {
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
	return f
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

// measure assembles the next forecast's measured inputs from the collector
// state. It returns an error when too little has been observed to solve.
func (f *Forecaster) measure() (*Forecast, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	accepted, terminated, failed := f.est.Counts()
	if events := accepted + terminated + failed; events < int64(f.cfg.MinEvents) {
		return nil, fmt.Errorf("%w: %d events observed, need %d", errNotReady, events, f.cfg.MinEvents)
	}
	elapsed := time.Since(f.start).Seconds()
	alive := f.alive
	alive.CloseAt(elapsed)
	md, err := f.est.Model(elapsed, alive.Mean())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errNotReady, err)
	}
	fc := &Forecast{Model: *md, Rejected: f.rejected}
	if f.hopsN > 0 {
		fc.AvgHops = float64(f.hopsSum) / float64(f.hopsN)
	}
	return fc, nil
}

// solve solves a measured model over the modeled grid.
func (f *Forecaster) solve(md *estimator.Model) (*estimator.Solved, error) {
	return md.Solve(f.spec)
}

// SolveNow runs one solve attempt synchronously and returns the published
// forecast (possibly a stale fallback) plus the attempt's error. The ticker
// loop calls it on every tick; tests and tools may call it directly.
func (f *Forecaster) SolveNow() (*Forecast, error) {
	f.solveMu.Lock()
	defer f.solveMu.Unlock()

	fc, err := f.measure()
	if err == nil {
		var sol *estimator.Solved
		sol, err = f.solveWithDeadline(&fc.Model)
		if err == nil {
			f.publishGood(fc, sol)
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
func (f *Forecaster) solveWithDeadline(md *estimator.Model) (*estimator.Solved, error) {
	type out struct {
		sol *estimator.Solved
		err error
	}
	ch := make(chan out, 1)
	fn := f.solveFn // captured: the abandoned goroutine must not see later swaps
	go func() {
		sol, err := fn(md)
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

// publishGood completes a measured forecast with its solution and swaps it
// in.
func (f *Forecaster) publishGood(fc *Forecast, sol *estimator.Solved) {
	now := time.Now()
	f.solves.Add(1)
	fc.Seq = f.seq.Add(1)
	fc.SolvedAt = now
	fc.States = f.n
	fc.MinKbps, fc.MaxKbps, fc.IncrementKbps = int64(f.spec.Min), int64(f.spec.Max), int64(f.spec.Increment)
	fc.Pi, fc.MeanBandwidthKbps = sol.Restart.Pi, sol.Restart.MeanBandwidth
	fc.Headroom = f.headroom(fc.MeanBandwidthKbps)
	fc.Saturated = fc.Headroom <= saturationHeadroom && fc.AvgAlive >= 1
	fc.Solves, fc.SolveErrors = f.solves.Load(), f.solveErrors.Load()
	fc.chain = sol.Chain
	fc.SolveDurationSeconds = time.Since(now).Seconds()
	f.lastErrMu.Lock()
	f.lastErr = ""
	f.lastErrMu.Unlock()
	f.cur.Store(fc)
}

// headroom is mean's normalized position (mean-Bmin)/(Bmax-Bmin) in the
// modeled range.
func (f *Forecaster) headroom(mean float64) float64 {
	if span := float64(f.spec.Max - f.spec.Min); span > 0 {
		return (mean - float64(f.spec.Min)) / span
	}
	return 0
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
