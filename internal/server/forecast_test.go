package server_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drqos/internal/channel"
	"drqos/internal/forecast"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

func newForecastServer(t *testing.T, fcfg forecast.Config) *server.Server {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 40, Alpha: 0.33, Beta: 0.25,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(g, manager.Config{Capacity: 10000}, server.Options{
		QueueDepth: 64, Forecast: &fcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// churnServer drives a closed-loop mix of establishes and terminations
// through the server API (so the forecaster taps fire exactly as in
// production) and returns how many arrivals were accepted.
func churnServer(t *testing.T, s *server.Server, seed uint64, ops int, terminateFrac float64) int {
	t.Helper()
	ctx := context.Background()
	src := rng.New(seed)
	nodes := s.StatsView().Nodes
	spec := qos.DefaultSpec()
	var alive []channel.ConnID
	accepted := 0
	for i := 0; i < ops; i++ {
		if len(alive) > 0 && src.Float64() < terminateFrac {
			last := len(alive) - 1
			id := alive[last]
			alive = alive[:last]
			if _, err := s.Terminate(ctx, id); err != nil {
				t.Fatalf("terminate: %v", err)
			}
			continue
		}
		a, b := src.Intn(nodes), src.Intn(nodes)
		if a == b {
			b = (b + 1) % nodes
		}
		rep, err := s.Establish(ctx, topology.NodeID(a), topology.NodeID(b), spec)
		switch {
		case err == nil:
			alive = append(alive, rep.Conn.ID)
			accepted++
		case errors.Is(err, manager.ErrRejected):
		default:
			t.Fatalf("establish: %v", err)
		}
	}
	return accepted
}

func TestForecastHTTPDisabled(t *testing.T) {
	s := newTestServer(t, 64)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	code, raw := doJSON(t, c, "GET", ts.URL+"/v1/forecast", nil, nil)
	if code != http.StatusNotFound {
		t.Errorf("GET /v1/forecast without forecasting: %d %s, want 404", code, raw)
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/forecast/whatif", forecast.WhatIfRequest{}, nil)
	if code != http.StatusNotFound {
		t.Errorf("whatif without forecasting: %d %s, want 404", code, raw)
	}
}

// TestForecastHTTPRoundTrip walks the full HTTP surface: unavailable before
// data, available after a solve, what-if counterfactuals, the stats block
// and the Prometheus gauges.
func TestForecastHTTPRoundTrip(t *testing.T) {
	// A one-hour interval keeps the ticker out of the way; the test drives
	// solves explicitly for determinism.
	s := newForecastServer(t, forecast.Config{Interval: time.Hour, MinEvents: 10})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	// Before any events: reachable, but explicitly unavailable.
	var env server.ForecastEnvelope
	code, raw := doJSON(t, c, "GET", ts.URL+"/v1/forecast", nil, &env)
	if code != http.StatusOK || env.Available || env.Reason == "" {
		t.Fatalf("pre-data forecast: %d %s", code, raw)
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/forecast/whatif", forecast.WhatIfRequest{}, nil)
	if code != http.StatusConflict {
		t.Fatalf("whatif before first solve: %d %s, want 409", code, raw)
	}

	churnServer(t, s, 17, 300, 0.3)
	if _, err := s.Forecaster().SolveNow(); err != nil {
		t.Fatal(err)
	}

	code, raw = doJSON(t, c, "GET", ts.URL+"/v1/forecast", nil, &env)
	if code != http.StatusOK || !env.Available || env.Forecast == nil {
		t.Fatalf("post-solve forecast: %d %s", code, raw)
	}
	f := env.Forecast
	if f.Seq < 1 || f.Stale || f.MeanBandwidthKbps < 100 || f.MeanBandwidthKbps > 500 {
		t.Errorf("forecast body: %+v", f)
	}
	if f.Lambda <= 0 || f.AvgAlive <= 0 || len(f.Pi) != f.States {
		t.Errorf("forecast parameters: λ=%g avgAlive=%g |π|=%d states=%d", f.Lambda, f.AvgAlive, len(f.Pi), f.States)
	}

	var wi forecast.WhatIfResponse
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/forecast/whatif", forecast.WhatIfRequest{Count: 5}, &wi)
	if code != http.StatusOK {
		t.Fatalf("whatif: %d %s", code, raw)
	}
	if wi.Count != 5 || wi.MeanKbps <= 0 || wi.Reason == "" || wi.DeltaTuning == nil {
		t.Errorf("whatif body: %+v", wi)
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/forecast/whatif",
		forecast.WhatIfRequest{MinKbps: 300, MaxKbps: 100, IncrementKbps: 50}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid whatif spec: %d %s, want 422", code, raw)
	}
	code, raw = doJSON(t, c, "POST", ts.URL+"/v1/forecast/whatif", forecast.WhatIfRequest{Count: -5}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("negative whatif count: %d %s, want 422", code, raw)
	}

	// Stats carry the live estimator block.
	var st server.Stats
	code, raw = doJSON(t, c, "GET", ts.URL+"/v1/stats", nil, &st)
	if code != http.StatusOK || st.Forecast == nil {
		t.Fatalf("stats forecast block: %d %s", code, raw)
	}
	if !st.Forecast.Available || st.Forecast.Lambda <= 0 || st.Forecast.Solves < 1 {
		t.Errorf("stats forecast block: %+v", st.Forecast)
	}

	// Prometheus surface.
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw2)
	for _, want := range []string{
		"drqos_forecast_available 1",
		"drqos_forecast_mean_bandwidth_kbps",
		"drqos_forecast_lambda_per_sec",
		"drqos_forecast_solves_total",
		"drqos_forecast_discarded_mass{matrix=\"A\"}",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestForecastClosedLoopAgreement is the sim-vs-forecast agreement check:
// on a steady closed-loop workload the model solved from live-estimated
// parameters must land near the measured average bandwidth (within 20%: the
// workload is short, and a tighter point threshold fails on noise).
func TestForecastClosedLoopAgreement(t *testing.T) {
	s := newForecastServer(t, forecast.Config{Interval: time.Hour, MinEvents: 10})
	defer s.Shutdown(context.Background())

	churnServer(t, s, 23, 4000, 0.35)
	fc, err := s.Forecaster().SolveNow()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgBandwidthKbps <= 0 {
		t.Fatalf("no standing population to measure against: %+v", st)
	}
	rel := math.Abs(fc.MeanBandwidthKbps-st.AvgBandwidthKbps) / st.AvgBandwidthKbps
	t.Logf("predicted %.1f Kb/s, measured %.1f Kb/s, rel err %.1f%% (λ=%.1f μ=%.1f Pf=%.3f N̄=%.1f)",
		fc.MeanBandwidthKbps, st.AvgBandwidthKbps, 100*rel, fc.Lambda, fc.Mu, fc.Pf, fc.AvgAlive)
	if rel > 0.20 {
		t.Errorf("forecast disagrees with measurement by %.1f%% (> 20%%)", 100*rel)
	}
}

// TestForecastLiveWhileOverloaded: the forecast read path never touches
// the actor loop, so it keeps serving while the overload control plane is
// shedding capacity-consuming work.
func TestForecastLiveWhileOverloaded(t *testing.T) {
	s := newForecastServer(t, forecast.Config{Interval: time.Hour, MinEvents: 10})
	defer s.Shutdown(context.Background())

	churnServer(t, s, 29, 300, 0.3)
	if _, err := s.Forecaster().SolveNow(); err != nil {
		t.Fatal(err)
	}
	s.ForceOverloaded(true)

	ts := httptest.NewServer(server.NewHandler(s))
	defer ts.Close()
	c := ts.Client()

	// Establishes are shed with 503 while overloaded...
	code, raw := doJSON(t, c, "POST", ts.URL+"/v1/connections", server.EstablishRequest{Src: 0, Dst: 5}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("establish while overloaded: %d %s, want 503", code, raw)
	}
	// ...but the forecast stays readable.
	var env server.ForecastEnvelope
	code, raw = doJSON(t, c, "GET", ts.URL+"/v1/forecast", nil, &env)
	if code != http.StatusOK || !env.Available {
		t.Fatalf("forecast while overloaded: %d %s", code, raw)
	}
}
