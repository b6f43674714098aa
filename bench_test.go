// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (§4), plus the DESIGN.md ablations and the micro
// benchmarks of the two hottest kernels. Each experiment benchmark runs the
// corresponding experiment end to end (topology generation → simulation →
// parameter estimation → Markov solve) at Quick scale and reports, besides
// wall time, the reproduction-quality metric that matters for that
// experiment (e.g. the relative error between model and simulation).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks fan their sweep points over a worker pool; pick
// the pool size with -bench-parallel (0 = GOMAXPROCS, 1 = the sequential
// path). Results are bit-identical either way, so the knob only moves wall
// time:
//
//	go test -bench=Fig2 -bench-parallel 1
//
// Regenerate the paper-scale numbers instead with:
//
//	go run ./cmd/experiments -run all -scale full
package drqos_test

import (
	"flag"
	"math"
	"testing"

	"drqos/internal/core"
	"drqos/internal/experiments"
	"drqos/internal/manager"
	"drqos/internal/markov"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/sim"
	"drqos/internal/topology"
)

// benchParallel is the sweep-point worker count for every experiment
// benchmark (0 = GOMAXPROCS, 1 = sequential).
var benchParallel = flag.Int("bench-parallel", 0, "experiment sweep workers (0 = GOMAXPROCS, 1 = sequential)")

// benchConfig is the per-iteration experiment config: a fresh seed each
// iteration, at the configured parallelism.
func benchConfig(i int) experiments.Config {
	return experiments.Config{Seed: uint64(i + 1), Workers: *benchParallel}
}

// BenchmarkFig2AvgBandwidthVsLoad regenerates Figure 2: the average
// reserved bandwidth as the number of DR-connections grows, simulated and
// analytic. Reported metrics: mean |model−sim|/sim over the sweep, and the
// bandwidth drop from the lightest to the heaviest load (the figure's
// shape).
func BenchmarkFig2AvgBandwidthVsLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		var relErr float64
		for _, p := range res.Points {
			relErr += math.Abs(p.Analytic-p.SimAvg) / p.SimAvg
		}
		relErr /= float64(len(res.Points))
		b.ReportMetric(relErr, "model-relerr")
		drop := res.Points[0].SimAvg - res.Points[len(res.Points)-1].SimAvg
		b.ReportMetric(drop, "Kbps-drop")
	}
}

// BenchmarkTable1IncrementSizes regenerates Table 1: 5-state (Δ=100) vs
// 9-state (Δ=50) chains on Random and Tier networks. Reported metric: the
// mean relative difference between the two chain sizes (the paper's point
// is that it is small).
func BenchmarkTable1IncrementSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		var diff float64
		for _, row := range res.Rows {
			diff += math.Abs(row.Random5-row.Random9) / math.Max(row.Random5, row.Random9)
		}
		b.ReportMetric(diff/float64(len(res.Rows)), "5v9-reldiff")
	}
}

// BenchmarkFig3AvgBandwidthVsNodes regenerates Figure 3: average bandwidth
// as the node count grows under fixed Waxman parameters. Reported metric:
// the edge growth factor across the sweep (the figure's dotted overlay).
func BenchmarkFig3AvgBandwidthVsNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		b.ReportMetric(float64(last.Links)/float64(first.Links), "edge-growth")
		b.ReportMetric(last.SimAvg-first.SimAvg, "Kbps-gain")
	}
}

// BenchmarkFig4FailureRates regenerates Figure 4: average bandwidth across
// link failure rates spanning five orders of magnitude. Reported metric:
// the max relative spread of the bandwidth across rates EXCLUDING the
// extreme γ=1e-2 point (the paper's conclusion is that the spread is
// negligible because γ ≪ λ, μ).
func BenchmarkFig4FailureRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range res.Points[:len(res.Points)-1] {
			lo = math.Min(lo, p.Avg2000)
			hi = math.Max(hi, p.Avg2000)
		}
		b.ReportMetric((hi-lo)/hi, "gamma-spread")
	}
}

// BenchmarkAblationElasticVsSingleValue regenerates Ablation A: elastic QoS
// vs the fixed-min and fixed-max single-value baselines. Reported metrics:
// elastic's acceptance advantage over fixed-max and utilization advantage
// over fixed-min at the heaviest load.
func BenchmarkAblationElasticVsSingleValue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationA(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Elastic.AcceptanceRatio-last.FixedMax.AcceptanceRatio, "accept-gain")
		b.ReportMetric(last.Elastic.AvgBandwidth/last.FixedMin.AvgBandwidth, "bw-vs-fixmin")
	}
}

// BenchmarkAblationAdaptationPolicies regenerates Ablation B: the
// coefficient (proportional) vs max-utility adaptation schemes (§2.2).
// Reported metric: the high/low-utility bandwidth gap under each policy.
func BenchmarkAblationAdaptationPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationB(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.HighUtilAvg-row.LowUtilAvg, row.Policy+"-gap")
		}
	}
}

// BenchmarkAblationBackupMultiplexing regenerates Ablation C: backup
// multiplexing (overbooking, §2.1.2) on vs off. Reported metric: the
// acceptance-ratio advantage multiplexing buys at the heaviest load.
func BenchmarkAblationBackupMultiplexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationC(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.MuxAcceptance-last.NoMuxAcceptance, "mux-accept-gain")
	}
}

// BenchmarkAblationRouteSelection regenerates Ablation D: bounded flooding
// vs sequential shortest-route selection (§2.1.1). Reported metric: the
// acceptance advantage of flooding at the heaviest load.
func BenchmarkAblationRouteSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationD(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.FloodAcceptance-last.SeqAcceptance, "flood-accept-gain")
	}
}

// BenchmarkCoverageExtension regenerates the protection-coverage sweep.
// Reported metric: the unprotected fraction at the top failure rate.
func BenchmarkCoverageExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Coverage(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.UnprotectedFrac, "unprotected-frac")
	}
}

// BenchmarkMarkovSolve9State measures the SHARPE-substitute solver on the
// paper's 9-state chain (the per-data-point analytic cost).
func BenchmarkMarkovSolve9State(b *testing.B) {
	// Parameters measured from a representative Figure 2 run.
	sys, err := core.NewSystem(core.Options{
		Seed: 1, InitialConns: 800, ChurnEvents: 400, WarmupEvents: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	ev, err := sys.Evaluate()
	if err != nil {
		b.Fatal(err)
	}
	chain, err := markov.Build(ev.Sim.Model.Params())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.SteadyStateFrom(ev.Sim.Model.BirthDist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstablish measures one DR-connection establishment (flooding +
// admission + backup multiplexing + redistribution) on a loaded
// paper-scale network.
func BenchmarkEstablish(b *testing.B) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 100, Alpha: core.PaperAlpha, Beta: core.PaperBeta,
	}, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Seed: 4,
		Spec: qos.DefaultSpec(),
		Manager: manager.Config{
			Capacity:      core.PaperCapacity,
			RequireBackup: true,
		},
		Lambda:       0.001,
		Mu:           0.001,
		InitialConns: 2000,
		ChurnEvents:  b.N + 1,
		WarmupEvents: 0,
	}
	s, err := sim.New(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
