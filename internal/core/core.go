// Package core is the public façade of the reproduction: it couples
// topology generation, the connection-level simulator and the analytic
// Markov models into one pipeline, so that a caller can reproduce any of
// the paper's data points with a few lines:
//
//	sys, _ := core.NewSystem(core.Options{Seed: 1, InitialConns: 3000})
//	ev, _ := sys.Evaluate()
//	fmt.Println(ev.Sim.AvgBandwidth, ev.PaperModel.MeanBandwidth)
//
// It also exposes the single-value QoS baselines (fixed-minimum and
// fixed-maximum requests) used to quantify the paper's motivating claim
// that elastic QoS "can accept substantially more DR-connections and
// improve the utilization of resources".
package core

import (
	"fmt"

	"drqos/internal/estimator"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/markov"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/sim"
	"drqos/internal/topology"
)

// Paper-matched Waxman parameters: α is quoted in §4; β is calibrated so a
// 100-node instance has ≈177 physical links = 354 directed edges, matching
// the paper's reported edge count, average degree 3.48 and diameter ≈8
// (see DESIGN.md on the GT-ITM substitution).
const (
	PaperAlpha = 0.33
	PaperBeta  = 0.1176
)

// PaperCapacity is the per-direction link bandwidth used throughout §4.
const PaperCapacity qos.Kbps = 10000

// PaperRates returns the §4 event rates: λ = μ = 0.001, γ = 0.
func PaperRates() (lambda, mu, gamma float64) { return 0.001, 0.001, 0 }

// TopologyKind selects the generative model.
type TopologyKind int

// Topology kinds: Waxman random graphs ("Random" in Table 1) and
// transit-stub internetworks ("Tier").
const (
	TopologyWaxman TopologyKind = iota + 1
	TopologyTransitStub
)

// Options parameterizes a System. The zero value of most fields selects the
// paper's setting.
type Options struct {
	// Seed drives topology generation and the simulation.
	Seed uint64
	// Kind selects the topology model (default Waxman).
	Kind TopologyKind
	// Nodes is the network size (default 100).
	Nodes int
	// ConstantDensity grows the Waxman domain with √(Nodes/100) at a fixed
	// distance-decay scale, keeping node density and per-node degree
	// constant as the network grows (Figure 3's regime: edge count grows
	// ~linearly, not quadratically, with nodes).
	ConstantDensity bool
	// Capacity is the per-direction link bandwidth (default 10 Mb/s).
	Capacity qos.Kbps
	// Spec is the elastic QoS of every connection (default 100..500/Δ50).
	Spec qos.ElasticSpec
	// Lambda/Mu/Gamma are the event rates (default 0.001/0.001/0).
	Lambda, Mu, Gamma float64
	// RepairRate is the link repair rate when Gamma > 0 (default 0.01).
	RepairRate float64
	// Policy distributes extras (default coefficient scheme).
	Policy qos.Policy
	// NoRequireBackup admits connections no backup can protect; by default
	// they are rejected (the paper's dependability QoS).
	NoRequireBackup bool
	// DisableBackupMultiplexing turns off spare sharing between backups
	// (the §2.1.2 overbooking ablation).
	DisableBackupMultiplexing bool
	// SequentialRouting replaces bounded flooding with the §2.1.1
	// sequential shortest-route search (checked one by one).
	SequentialRouting bool
	// ReactiveRecovery disables backups and re-establishes failed
	// connections from scratch (the restoration baseline of §2.1.2).
	ReactiveRecovery bool
	// InitialConns / ChurnEvents / WarmupEvents shape the run (defaults
	// 3000 / 2000 / 400).
	InitialConns, ChurnEvents, WarmupEvents int
	// Trace, when non-nil, journals every event the simulator applies (see
	// sim.Config.Trace and OpenTrace).
	Trace *journal.Journal
}

func (o Options) withDefaults() Options {
	if o.Kind == 0 {
		o.Kind = TopologyWaxman
	}
	if o.Nodes == 0 {
		o.Nodes = 100
	}
	if o.Capacity == 0 {
		o.Capacity = PaperCapacity
	}
	if o.Spec == (qos.ElasticSpec{}) {
		o.Spec = qos.DefaultSpec()
	}
	if o.Lambda == 0 && o.Mu == 0 {
		// Default λ and μ only: a caller-specified γ must survive.
		l, m, _ := PaperRates()
		o.Lambda, o.Mu = l, m
	}
	if o.Gamma > 0 && o.RepairRate == 0 {
		o.RepairRate = 0.01
	}
	if o.InitialConns == 0 {
		o.InitialConns = 3000
	}
	if o.ChurnEvents == 0 {
		o.ChurnEvents = 2000
	}
	if o.WarmupEvents == 0 {
		o.WarmupEvents = 400
	}
	return o
}

// simConfig is the simulation o describes, every connection requesting
// spec. The run is not traced.
func (o Options) simConfig(spec qos.ElasticSpec) sim.Config {
	routes := manager.RouteFlood
	if o.SequentialRouting {
		routes = manager.RouteSequential
	}
	return sim.Config{
		Seed: o.Seed,
		Spec: spec,
		Manager: manager.Config{
			Capacity:                  o.Capacity,
			Policy:                    o.Policy,
			RequireBackup:             !o.NoRequireBackup && !o.ReactiveRecovery,
			DisableBackupMultiplexing: o.DisableBackupMultiplexing,
			RouteSelection:            routes,
			ReactiveRecovery:          o.ReactiveRecovery,
		},
		Lambda:       o.Lambda,
		Mu:           o.Mu,
		Gamma:        o.Gamma,
		RepairRate:   o.RepairRate,
		InitialConns: o.InitialConns,
		ChurnEvents:  o.ChurnEvents,
		WarmupEvents: o.WarmupEvents,
	}
}

// System is a ready-to-run reproduction pipeline.
type System struct {
	opts    Options
	graph   *topology.Graph
	metrics topology.Metrics
}

// NewSystem generates the topology and prepares a System.
func NewSystem(opts Options) (*System, error) {
	o := opts.withDefaults()
	src := rng.New(o.Seed)
	var g *topology.Graph
	var err error
	switch o.Kind {
	case TopologyWaxman:
		g, err = topology.Waxman(topology.WaxmanConfig{
			Nodes: o.Nodes, Alpha: PaperAlpha, Beta: PaperBeta, ConstantDensity: o.ConstantDensity,
		}, src)
	case TopologyTransitStub:
		g, err = topology.TransitStub(src)
	default:
		return nil, fmt.Errorf("core: unknown topology kind %d", o.Kind)
	}
	if err != nil {
		return nil, err
	}
	return &System{opts: o, graph: g, metrics: topology.ComputeMetrics(g)}, nil
}

// Graph returns the generated topology.
func (s *System) Graph() *topology.Graph { return s.graph }

// Metrics returns the structural summary of the topology.
func (s *System) Metrics() topology.Metrics { return s.metrics }

// Evaluation bundles one simulation run with every analytic estimate.
type Evaluation struct {
	// Sim is the detailed simulation result (ground truth).
	Sim *sim.Result
	// PaperModel and RestartModel solve the run's measured model
	// (Sim.Model, estimator.Model.Solve): the §3.2 chain as published, and
	// with the finite-lifetime extension.
	PaperModel, RestartModel estimator.Solution
	// GeneralModel additionally keeps the jump directions the triangular
	// structure discards (markov.BuildGeneral), with the restart extension.
	GeneralModel estimator.Solution
	// IdealBandwidth is the paper's reference line BW·Edges/(NChan·hops),
	// unclamped, with Edges counting directed edges as in Figure 2.
	IdealBandwidth float64
}

// Evaluate runs the simulation and solves all three analytic models. A run
// whose measured window holds no accepted arrival has no model: its
// Evaluation carries the simulation alone.
func (s *System) Evaluate() (*Evaluation, error) {
	o := s.opts
	simCfg := o.simConfig(o.Spec)
	simCfg.Trace = o.Trace
	run, err := sim.New(s.graph, simCfg)
	if err != nil {
		return nil, err
	}
	res, err := run.Run()
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Sim: res}
	ev.IdealBandwidth = sim.IdealAverageBandwidthUnclamped(
		o.Capacity, s.graph.NumDirLinks(), res.AliveAtEnd, res.AvgHops)

	md := res.Model
	if md == nil {
		return ev, nil // no model to solve; Sim.NoModel says why
	}
	sol, err := md.Solve(o.Spec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ev.PaperModel, ev.RestartModel = sol.Paper, sol.Restart
	general, err := markov.BuildGeneral(o.Spec.States(), md.GeneralTerms())
	if err != nil {
		return nil, fmt.Errorf("core: general model: %w", err)
	}
	if ev.GeneralModel.Pi, ev.GeneralModel.MeanBandwidth, err = markov.Solve(general, md.BirthDist, md.Delta, o.Spec); err != nil {
		return nil, fmt.Errorf("core: general model: %w", err)
	}
	return ev, nil
}

// FixedSpec returns a single-value QoS specification (Min = Max = bw), the
// baseline model the paper contrasts elastic QoS against (§1, §2.2).
func FixedSpec(bw qos.Kbps) qos.ElasticSpec {
	return qos.ElasticSpec{Min: bw, Max: bw, Increment: bw, Utility: 1}
}

// BaselineComparison contrasts elastic QoS against the single-value
// baselines on identical topologies and workloads (Ablation A in
// DESIGN.md).
type BaselineComparison struct {
	// Elastic / FixedMin / FixedMax are the per-scheme outcomes.
	Elastic, FixedMin, FixedMax SchemeOutcome
}

// SchemeOutcome summarizes one admission scheme's run.
type SchemeOutcome struct {
	// Scheme names the QoS model ("elastic", "fixed-min", "fixed-max").
	Scheme string
	// AcceptanceRatio is established / offered.
	AcceptanceRatio float64
	// AvgBandwidth is the measured average reserved bandwidth (Kb/s).
	AvgBandwidth float64
	// AliveAtEnd is the final population.
	AliveAtEnd int
	// UtilizationProxy is AliveAtEnd · AvgBandwidth, a throughput-style
	// comparison number across schemes.
	UtilizationProxy float64
}

// CompareBaselines runs the same workload under elastic QoS, fixed-minimum
// and fixed-maximum single-value QoS. All three use identical topologies
// and arrival sequences (same seed).
func (s *System) CompareBaselines() (*BaselineComparison, error) {
	o := s.opts
	runOne := func(scheme string, spec qos.ElasticSpec) (SchemeOutcome, error) {
		run, err := sim.New(s.graph, o.simConfig(spec))
		if err != nil {
			return SchemeOutcome{}, err
		}
		res, err := run.Run()
		if err != nil {
			return SchemeOutcome{}, err
		}
		ratio := 0.0
		if res.Offered > 0 {
			ratio = float64(res.Established) / float64(res.Offered)
		}
		return SchemeOutcome{
			Scheme:           scheme,
			AcceptanceRatio:  ratio,
			AvgBandwidth:     res.AvgBandwidth,
			AliveAtEnd:       res.AliveAtEnd,
			UtilizationProxy: float64(res.AliveAtEnd) * res.AvgBandwidth,
		}, nil
	}
	elastic, err := runOne("elastic", o.Spec)
	if err != nil {
		return nil, err
	}
	fixedMin, err := runOne("fixed-min", FixedSpec(o.Spec.Min))
	if err != nil {
		return nil, err
	}
	fixedMax, err := runOne("fixed-max", FixedSpec(o.Spec.Max))
	if err != nil {
		return nil, err
	}
	return &BaselineComparison{Elastic: elastic, FixedMin: fixedMin, FixedMax: fixedMax}, nil
}
