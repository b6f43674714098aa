package sim

import (
	"math"
	"testing"

	"drqos/internal/manager"
	"drqos/internal/markov"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// paperGraph generates a 100-node Waxman topology close to the paper's
// instance (354 edges).
func paperGraph(t testing.TB, seed uint64) *topology.Graph {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 100, Alpha: 0.33, Beta: 0.088,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func baseConfig(seed uint64) Config {
	return Config{
		Seed: seed,
		Spec: qos.DefaultSpec(),
		Manager: manager.Config{
			Capacity:      10000, // 10 Mb/s links
			RequireBackup: true,
		},
		Lambda:       0.001,
		Mu:           0.001,
		Gamma:        0,
		InitialConns: 150,
		ChurnEvents:  300,
		WarmupEvents: 50,
	}
}

func TestConfigValidate(t *testing.T) {
	ok := baseConfig(1)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Mu = 0 },
		func(c *Config) { c.Gamma = -1 },
		func(c *Config) { c.RepairRate = -1 },
		func(c *Config) { c.InitialConns = -1 },
		func(c *Config) { c.ChurnEvents = -1 },
		func(c *Config) { c.WarmupEvents = 400 },
		func(c *Config) { c.Spec.Min = 0 },
	}
	for i, mutate := range cases {
		c := baseConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	g := paperGraph(t, 11)
	s, err := New(g, baseConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Established == 0 {
		t.Fatal("nothing established")
	}
	if res.AvgBandwidth < 100 || res.AvgBandwidth > 500 {
		t.Fatalf("avg bandwidth %v outside elastic range", res.AvgBandwidth)
	}
	if res.AliveAtEnd <= 0 {
		t.Fatal("no survivors")
	}
	if res.AvgHops <= 0 {
		t.Fatal("no hop statistics")
	}
	if res.Duration <= 0 {
		t.Fatal("no measured duration")
	}
	// Conservation: offered = established + rejected.
	if res.Offered != res.Established+res.Rejected {
		t.Fatalf("offered %d != established %d + rejected %d",
			res.Offered, res.Established, res.Rejected)
	}
	// Population conservation: established = alive + terminated + dropped.
	if res.Established != int64(res.AliveAtEnd)+res.Terminated+res.Dropped {
		t.Fatalf("established %d != alive %d + terminated %d + dropped %d",
			res.Established, res.AliveAtEnd, res.Terminated, res.Dropped)
	}
	// Occupancy fractions form a distribution.
	var sum float64
	for _, p := range res.EmpiricalPi {
		if p < 0 || p > 1 {
			t.Fatalf("occupancy %v", res.EmpiricalPi)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("occupancy sums to %v", sum)
	}
	// Manager invariants hold at the end.
	if err := s.ManagerForTesting().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministic(t *testing.T) {
	g1 := paperGraph(t, 11)
	g2 := paperGraph(t, 11)
	s1, err := New(g1, baseConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(g2, baseConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.AvgBandwidth != r2.AvgBandwidth || r1.Established != r2.Established ||
		r1.Model.Pf != r2.Model.Pf || r1.AliveAtEnd != r2.AliveAtEnd {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	g := paperGraph(t, 11)
	s1, _ := New(g, baseConfig(1))
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	g2 := paperGraph(t, 11)
	cfg := baseConfig(2)
	s2, _ := New(g2, cfg)
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.AvgBandwidth == r2.AvgBandwidth && r1.Model.Pf == r2.Model.Pf {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestMeasuredParamsAreSane(t *testing.T) {
	g := paperGraph(t, 13)
	cfg := baseConfig(99)
	cfg.InitialConns = 400
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
	p := res.Model.Params()
	if p.Pf <= 0 || p.Pf >= 1 {
		t.Fatalf("Pf = %v", p.Pf)
	}
	if p.Ps < 0 || p.Ps > 1 {
		t.Fatalf("Ps = %v", p.Ps)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("measured params invalid: %v", err)
	}
	// The measured chain must be buildable and solvable.
	chain, err := markov.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	_, mean, err := markov.Solve(chain, res.Model.BirthDist, 0, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 100 || mean > 500 {
		t.Fatalf("analytic mean %v outside elastic range", mean)
	}
}

func TestAnalyticTracksSimulation(t *testing.T) {
	// The headline validation of the paper: the Markov model's average
	// bandwidth is close to the simulated time-weighted average. We accept
	// a generous 20% relative band at this small scale; the experiment
	// harness demonstrates the tight match at paper scale.
	if testing.Short() {
		t.Skip("medium-load validation skipped in -short mode")
	}
	g := paperGraph(t, 17)
	cfg := baseConfig(5)
	cfg.InitialConns = 600
	cfg.ChurnEvents = 1200
	cfg.WarmupEvents = 200
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.Build(res.Model.Params())
	if err != nil {
		t.Fatal(err)
	}
	_, analytic, err := markov.Solve(chain, res.Model.BirthDist, 0, cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(analytic-res.AvgBandwidth) / res.AvgBandwidth
	if relErr > 0.20 {
		t.Fatalf("analytic %v vs simulated %v: relative error %v",
			analytic, res.AvgBandwidth, relErr)
	}
}

func TestFailuresDropAndActivate(t *testing.T) {
	g := paperGraph(t, 19)
	cfg := baseConfig(3)
	cfg.Gamma = 0.0005 // frequent failures relative to churn
	cfg.RepairRate = 0.01
	cfg.InitialConns = 200
	cfg.ChurnEvents = 400
	cfg.WarmupEvents = 50
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected despite gamma > 0")
	}
	if err := s.ManagerForTesting().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Conservation still holds with drops.
	if res.Established != int64(res.AliveAtEnd)+res.Terminated+res.Dropped {
		t.Fatalf("conservation broken: %+v", res)
	}
}

func TestIdealAverageBandwidth(t *testing.T) {
	spec := qos.DefaultSpec()
	// Paper numbers: 10 Mb/s, 354 edges; at low load the ideal exceeds
	// Bmax and is clamped.
	if got := IdealAverageBandwidth(10000, 354, 1000, 4, spec); got != 500 {
		t.Fatalf("low load ideal = %v, want clamp at 500", got)
	}
	// High load: 10000*354/(5000*4) = 177.
	if got := IdealAverageBandwidth(10000, 354, 5000, 4, spec); math.Abs(got-177) > 0.1 {
		t.Fatalf("high load ideal = %v, want 177", got)
	}
	// Degenerate inputs.
	if got := IdealAverageBandwidth(10000, 354, 0, 4, spec); got != 500 {
		t.Fatalf("zero channels = %v", got)
	}
	if got := IdealAverageBandwidthUnclamped(10000, 354, 5000, 4); math.Abs(got-177) > 0.1 {
		t.Fatalf("unclamped = %v", got)
	}
	if got := IdealAverageBandwidthUnclamped(10000, 354, 0, 4); got != 0 {
		t.Fatalf("unclamped degenerate = %v", got)
	}
}

func BenchmarkSimChurnEvent(b *testing.B) {
	g := paperGraph(b, 11)
	cfg := baseConfig(1)
	cfg.InitialConns = 500
	cfg.ChurnEvents = b.N + 1
	cfg.WarmupEvents = 0
	s, err := New(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
