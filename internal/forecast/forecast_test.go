package forecast

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"drqos/internal/channel"
	"drqos/internal/estimator"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// harness drives a real manager and mirrors the server's actor-loop taps
// into both the forecaster under test and a reference estimator fed the
// identical event trace.
type harness struct {
	t   *testing.T
	m   *manager.Manager
	f   *Forecaster
	ref *estimator.Estimator
	src *rng.Source

	alive                        []channel.ConnID
	accepted, terminated, failed int64
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manager.New(g, manager.Config{Capacity: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CapacityKbps == 0 {
		cfg.CapacityKbps = 10000
	}
	if cfg.DirectedLinks == 0 {
		cfg.DirectedLinks = g.NumDirLinks()
	}
	f := New(cfg)
	return &harness{t: t, m: m, f: f, ref: estimator.New(f.n), src: rng.New(11)}
}

// churn runs n mixed operations — establishes, terminations and the
// occasional fail+repair — feeding every observable event through the
// forecaster's taps exactly as internal/server's actor loop does.
func (h *harness) churn(n int) {
	h.t.Helper()
	nodes := h.m.Graph().NumNodes()
	links := h.m.Graph().NumLinks()
	spec := qos.DefaultSpec()
	for i := 0; i < n; i++ {
		switch {
		case len(h.alive) > 0 && h.src.Float64() < 0.3:
			last := len(h.alive) - 1
			id := h.alive[last]
			h.alive = h.alive[:last]
			rep, err := h.m.Terminate(id)
			if err != nil {
				h.t.Fatalf("terminate %d: %v", id, err)
			}
			h.f.Observe(h.m, manager.Outcome{Termination: rep}, 0)
			h.ref.Observe(h.m, manager.Outcome{Termination: rep}, 0)
			h.terminated++
		case i > 0 && i%29 == 0:
			l := topology.LinkID(h.src.Intn(links))
			alivePrior := h.m.AliveCount()
			rep, err := h.m.FailLink(l)
			if err != nil {
				h.t.Fatalf("fail link %d: %v", l, err)
			}
			h.f.Observe(h.m, manager.Outcome{Failure: rep}, alivePrior)
			h.ref.Observe(h.m, manager.Outcome{Failure: rep}, alivePrior)
			h.failed++
			if _, err := h.m.RepairLink(l); err != nil {
				h.t.Fatalf("repair link %d: %v", l, err)
			}
			// The failure may have dropped connections; resync ownership.
			h.alive = h.m.AliveIDs()
		default:
			a, b := h.src.Intn(nodes), h.src.Intn(nodes)
			if a == b {
				b = (b + 1) % nodes
			}
			alivePrior := h.m.AliveCount()
			rep, err := h.m.Establish(topology.NodeID(a), topology.NodeID(b), spec)
			switch {
			case err == nil:
				h.f.Observe(h.m, manager.Outcome{Arrival: rep}, alivePrior)
				h.ref.Observe(h.m, manager.Outcome{Arrival: rep}, alivePrior)
				h.alive = append(h.alive, rep.Conn.ID)
				h.accepted++
			case errors.Is(err, manager.ErrRejected):
				h.f.ObserveReject()
			default:
				h.t.Fatalf("establish: %v", err)
			}
		}
	}
}

// TestForecastFromScriptedEvents checks that a forecast solved from the
// live tap agrees exactly with a reference estimator fed the same trace:
// same transition matrices, same chaining probabilities, rates consistent
// with the raw counts, and a proper distribution over the modeled grid.
func TestForecastFromScriptedEvents(t *testing.T) {
	h := newHarness(t, Config{MinEvents: 10})
	h.churn(200)

	fc, err := h.f.SolveNow()
	if err != nil {
		t.Fatal(err)
	}
	if fc == nil || fc.Stale {
		t.Fatalf("expected fresh forecast, got %+v", fc)
	}
	if fc.Accepted != h.accepted || fc.Terminated != h.terminated || fc.Failed != h.failed {
		t.Errorf("counts: forecast (%d,%d,%d), harness (%d,%d,%d)",
			fc.Accepted, fc.Terminated, fc.Failed, h.accepted, h.terminated, h.failed)
	}

	var sum float64
	for _, p := range fc.Pi {
		if p < -1e-12 {
			t.Errorf("negative pi mass %g", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pi sums to %g, want 1", sum)
	}
	if fc.MeanBandwidthKbps < float64(fc.MinKbps) || fc.MeanBandwidthKbps > float64(fc.MaxKbps) {
		t.Errorf("mean %g outside [%d,%d]", fc.MeanBandwidthKbps, fc.MinKbps, fc.MaxKbps)
	}

	// Rates are counts over the observation window.
	if got := fc.Lambda * fc.Window; math.Abs(got-float64(h.accepted)) > 1e-6 {
		t.Errorf("lambda*window = %g, want %d", got, h.accepted)
	}
	if math.Abs(fc.Delta-fc.Mu/fc.AvgAlive) > 1e-12 {
		t.Errorf("delta %g != mu/avgAlive %g", fc.Delta, fc.Mu/fc.AvgAlive)
	}

	// Identical trace → identical estimated model, jump matrices included.
	ref, err := h.ref.Model(fc.Window, fc.AvgAlive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*ref, fc.Model) {
		t.Errorf("model %+v differs from the reference %+v", fc.Model, *ref)
	}
}

func TestForecastInsufficientData(t *testing.T) {
	f := New(Config{})
	fc, err := f.SolveNow()
	if err == nil {
		t.Fatal("expected an error before any events")
	}
	if fc != nil || f.Current() != nil {
		t.Fatal("Current must stay nil before the first successful solve")
	}
	if !errors.Is(err, errNotReady) {
		t.Errorf("error = %v, want errNotReady", err)
	}
	// Warm-up is not a model failure: the reason is reported, but no solve
	// error is counted for an idle daemon.
	_, solveErrors, lastErr := f.Status()
	if solveErrors != 0 || lastErr == "" {
		t.Errorf("status after warm-up tick: errors=%d lastErr=%q", solveErrors, lastErr)
	}
}

// TestForecastSolveFailureFallback checks the staleness contract: a failed
// solve keeps serving the previous result marked stale, and the next good
// solve replaces it.
func TestForecastSolveFailureFallback(t *testing.T) {
	h := newHarness(t, Config{MinEvents: 10})
	h.churn(120)
	good, err := h.f.SolveNow()
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("solver exploded")
	h.f.solveFn = func(*estimator.Model) (*estimator.Solved, error) { return nil, boom }
	fc, err := h.f.SolveNow()
	if !errors.Is(err, boom) {
		t.Fatalf("SolveNow error = %v, want injected failure", err)
	}
	if fc == nil || !fc.Stale {
		t.Fatalf("expected stale fallback, got %+v", fc)
	}
	if fc.Seq != good.Seq || fc.MeanBandwidthKbps != good.MeanBandwidthKbps {
		t.Errorf("stale fallback must re-publish the last good solution (seq %d vs %d)", fc.Seq, good.Seq)
	}
	if !strings.Contains(fc.LastError, "exploded") {
		t.Errorf("LastError = %q", fc.LastError)
	}
	if solves, solveErrors, lastErr := h.f.Status(); solves != 1 || solveErrors != 1 || lastErr == "" {
		t.Errorf("status = (%d,%d,%q)", solves, solveErrors, lastErr)
	}

	// Recovery: the next good solve clears staleness and the error.
	h.f.solveFn = h.f.solve
	fc2, err := h.f.SolveNow()
	if err != nil {
		t.Fatal(err)
	}
	if fc2.Stale || fc2.Seq != good.Seq+1 {
		t.Errorf("recovered forecast: stale=%v seq=%d (want fresh, seq %d)", fc2.Stale, fc2.Seq, good.Seq+1)
	}
	if _, _, lastErr := h.f.Status(); lastErr != "" {
		t.Errorf("lastErr not cleared after recovery: %q", lastErr)
	}
}

// TestForecastSolveTimeout checks the deadline path: an overrunning solve
// is abandoned, reported as ErrSolveTimeout, and falls back per the
// staleness contract.
func TestForecastSolveTimeout(t *testing.T) {
	h := newHarness(t, Config{MinEvents: 10, solveTimeout: 20 * time.Millisecond})
	h.churn(120)

	slow := func(md *estimator.Model) (*estimator.Solved, error) {
		time.Sleep(300 * time.Millisecond)
		return h.f.solve(md)
	}
	h.f.solveFn = slow
	fc, err := h.f.SolveNow()
	if !errors.Is(err, ErrSolveTimeout) {
		t.Fatalf("error = %v, want ErrSolveTimeout", err)
	}
	if fc != nil || h.f.Current() != nil {
		t.Fatal("no prior good solve: Current must stay nil after a timeout")
	}

	h.f.solveFn = h.f.solve
	if _, err := h.f.SolveNow(); err != nil {
		t.Fatal(err)
	}
	h.f.solveFn = slow
	fc, err = h.f.SolveNow()
	if !errors.Is(err, ErrSolveTimeout) {
		t.Fatalf("error = %v, want ErrSolveTimeout", err)
	}
	if fc == nil || !fc.Stale {
		t.Fatalf("expected stale fallback after timeout, got %+v", fc)
	}
}

// TestForecastPredictiveLatch drives the model-predicted overload output
// through its full lifecycle: latch on predicted saturation, release on
// predicted headroom, and release when the forecast goes stale for longer
// than staleClearAfter solve intervals.
func TestForecastPredictiveLatch(t *testing.T) {
	var flips []bool
	h := newHarness(t, Config{
		MinEvents:    10,
		Predictive:   true,
		Interval:     20 * time.Millisecond,
		solveTimeout: time.Second,
		OnPredict:    func(on bool) { flips = append(flips, on) },
	})
	h.churn(120)

	spec := h.f.spec
	point := func(mean float64) func(*estimator.Model) (*estimator.Solved, error) {
		return func(*estimator.Model) (*estimator.Solved, error) {
			pi := make([]float64, spec.States())
			pi[0] = 1
			return &estimator.Solved{Restart: estimator.Solution{Pi: pi, MeanBandwidth: mean}}, nil
		}
	}

	h.f.solveFn = point(float64(spec.Min)) // zero headroom → saturated
	if _, err := h.f.SolveNow(); err != nil {
		t.Fatal(err)
	}
	if !h.f.Predicted() {
		t.Fatal("saturated solve must latch the predictive output")
	}
	h.f.solveFn = point(300) // 50% headroom
	if _, err := h.f.SolveNow(); err != nil {
		t.Fatal(err)
	}
	if h.f.Predicted() {
		t.Fatal("headroom solve must release the predictive latch")
	}

	// Stale within the window keeps the latch; stale past
	// staleClearAfter intervals releases it.
	h.f.solveFn = point(float64(spec.Min))
	h.f.SolveNow()
	h.f.solveFn = func(*estimator.Model) (*estimator.Solved, error) { return nil, errors.New("down") }
	h.f.SolveNow()
	if !h.f.Predicted() {
		t.Fatal("a freshly stale forecast must keep the predictive latch")
	}
	time.Sleep((staleClearAfter + 2) * 20 * time.Millisecond)
	h.f.SolveNow()
	if h.f.Predicted() {
		t.Fatal("a long-stale forecast must release the predictive latch")
	}

	want := []bool{true, false, true, false}
	if len(flips) != len(want) {
		t.Fatalf("OnPredict flips = %v, want %v", flips, want)
	}
	for i := range want {
		if flips[i] != want[i] {
			t.Fatalf("OnPredict flips = %v, want %v", flips, want)
		}
	}
}

// TestForecastStartStopLoop exercises the supervised goroutine: the ticker
// loop solves on its own, Stop is idempotent, and the last forecast stays
// readable after shutdown, including under concurrent observation.
func TestForecastStartStopLoop(t *testing.T) {
	h := newHarness(t, Config{MinEvents: 10, Interval: 5 * time.Millisecond})
	h.f.Start()
	h.churn(300) // feeds observations while the solve loop runs

	deadline := time.Now().Add(5 * time.Second)
	for h.f.Current() == nil && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.f.Current() == nil {
		t.Fatal("solve loop never published a forecast")
	}
	h.f.Stop()
	h.f.Stop() // idempotent
	if h.f.Current() == nil {
		t.Fatal("forecast must stay readable after Stop")
	}
}
