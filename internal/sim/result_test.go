package sim

import (
	"math"
	"testing"

	"drqos/internal/markov"
)

func TestResultNewFields(t *testing.T) {
	g := paperGraph(t, 21)
	cfg := baseConfig(31)
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Birth distribution is a distribution.
	var sum float64
	for _, p := range res.Model.BirthDist {
		if p < 0 || p > 1 {
			t.Fatalf("birth dist %v", res.Model.BirthDist)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("birth dist sums to %v", sum)
	}
	if res.Model.AvgAlive <= 0 {
		t.Fatalf("avg alive %v", res.Model.AvgAlive)
	}
	// Effective rates are positive and near the configured ones at light
	// load (few rejections).
	if res.Model.Lambda <= 0 || res.Model.Mu <= 0 {
		t.Fatalf("effective rates %v/%v", res.Model.Lambda, res.Model.Mu)
	}
	if res.Model.Lambda > 3*cfg.Lambda || res.Model.Lambda < cfg.Lambda/3 {
		t.Fatalf("effective lambda %v far from configured %v", res.Model.Lambda, cfg.Lambda)
	}
	if res.Model.Gamma != 0 {
		t.Fatalf("effective gamma %v with no failures", res.Model.Gamma)
	}
	// General terms build a solvable chain.
	if len(res.Model.GeneralTerms()) != 4 {
		t.Fatalf("terms = %d", len(res.Model.GeneralTerms()))
	}
	chain, err := markov.BuildGeneral(cfg.Spec.States(), res.Model.GeneralTerms())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.SteadyStateFrom(res.Model.BirthDist); err != nil {
		t.Fatal(err)
	}
}

func TestLightLoadOccupancyMatchesModel(t *testing.T) {
	// At light load the empirical occupancy concentrates near Bmax and
	// the restart model reproduces it closely (the validation in §4).
	g := paperGraph(t, 23)
	cfg := baseConfig(37)
	cfg.InitialConns = 200
	cfg.ChurnEvents = 800
	cfg.WarmupEvents = 200
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	top := cfg.Spec.States() - 1
	if res.EmpiricalPi[top] < 0.5 {
		t.Fatalf("light load should concentrate at Bmax: %v", res.EmpiricalPi)
	}
	chain, err := markov.Build(res.Model.Params())
	if err != nil {
		t.Fatal(err)
	}
	delta := res.Model.Mu / res.Model.AvgAlive
	rchain, err := chain.WithRestart(res.Model.BirthDist, delta)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := rchain.SteadyStateFrom(res.Model.BirthDist)
	if err != nil {
		t.Fatal(err)
	}
	// Top-state occupancy agreement within 10 percentage points.
	if math.Abs(pi[top]-res.EmpiricalPi[top]) > 0.10 {
		t.Fatalf("model top-state %v vs empirical %v", pi[top], res.EmpiricalPi[top])
	}
}

func TestRepairsHappen(t *testing.T) {
	g := paperGraph(t, 29)
	cfg := baseConfig(41)
	cfg.Gamma = 0.001
	cfg.RepairRate = 0.1 // fast repair relative to failures
	cfg.InitialConns = 150
	cfg.ChurnEvents = 600
	cfg.WarmupEvents = 100
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures")
	}
	if res.Repairs == 0 {
		t.Fatal("no repairs despite repair rate")
	}
	if res.Model.Gamma <= 0 {
		t.Fatalf("effective gamma %v", res.Model.Gamma)
	}
}

func TestAvgBandwidthCI(t *testing.T) {
	g := paperGraph(t, 51)
	cfg := baseConfig(53)
	cfg.InitialConns = 800
	cfg.ChurnEvents = 600
	cfg.WarmupEvents = 100
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgBandwidthCI95 <= 0 {
		t.Fatalf("no CI computed: %v", res.AvgBandwidthCI95)
	}
	// The CI must be small relative to the mean on a run this long.
	if res.AvgBandwidthCI95 > 0.25*res.AvgBandwidth {
		t.Fatalf("CI %v implausibly wide for mean %v", res.AvgBandwidthCI95, res.AvgBandwidth)
	}
}
