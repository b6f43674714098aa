// Package experiments reproduces every table and figure of the paper's
// evaluation section (§4), plus the ablations called out in DESIGN.md, as
// typed results whose one Table is what the terminal and .dat files show.
//
// Scale presets: Full reproduces the paper's parameter ranges; Quick keeps
// the same shape at a fraction of the load so that `go test -bench` and CI
// runs finish in minutes.
package experiments

import (
	"context"

	"drqos/internal/core"
	"drqos/internal/parallel"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// Scale selects the effort level of an experiment run.
type Scale int

// Scales: Quick for benchmarks and CI, Full for the paper's ranges.
const (
	ScaleQuick Scale = iota + 1
	ScaleFull
)

// Config carries the knobs shared by all experiments.
type Config struct {
	// Seed drives topology generation and the simulations.
	Seed uint64
	// Scale selects Quick or Full parameter ranges (default Quick).
	Scale Scale
	// Workers bounds how many sweep data points run concurrently. Every
	// point is seed-isolated (it derives all randomness from Seed and its
	// own sweep coordinates), so results are bit-identical for any worker
	// count. 0 selects GOMAXPROCS; 1 forces the sequential path.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = ScaleQuick
	}
	if c.Seed == 0 {
		c.Seed = 2001 // the paper's year; any fixed value works
	}
	return c
}

// churn returns the per-point churn/warmup budget for the scale.
func (c Config) churn() (events, warmup int) {
	if c.Scale == ScaleFull {
		return 2000, 400
	}
	return 600, 150
}

// loads returns the offered-connection sweep for the scale.
func (c Config) loads() []int {
	if c.Scale == ScaleFull {
		return []int{500, 1000, 2000, 3000, 4000, 5000}
	}
	return []int{500, 1500, 3000}
}

// runPoints fans a sweep's data points out over the configured worker pool
// and returns the per-point results in sweep order. Each point builds its
// own System from cfg.Seed and its sweep coordinates, so the fan-out is
// deterministic: any Workers value (including 1, the sequential path)
// produces identical results, and the first error — by sweep order — wins.
func runPoints[P, R any](cfg Config, points []P, fn func(p P) (R, error)) ([]R, error) {
	return parallel.Map(context.Background(), points, cfg.Workers,
		func(_ context.Context, p P) (R, error) { return fn(p) })
}

// pairSource deterministically draws distinct (src, dst) node pairs.
type pairSource struct {
	src   *rng.Source
	nodes int
}

func newPairSource(seed uint64, nodes int) *pairSource {
	return &pairSource{src: rng.New(seed), nodes: nodes}
}

func (p *pairSource) next() (topology.NodeID, topology.NodeID) {
	a := topology.NodeID(p.src.Intn(p.nodes))
	b := topology.NodeID(p.src.Intn(p.nodes - 1))
	if b >= a {
		b++
	}
	return a, b
}

// evaluateAt runs one data point on a fresh system with the given load.
func evaluateAt(cfg Config, opts core.Options, load int) (*core.Evaluation, *core.System, error) {
	events, warmup := cfg.churn()
	opts.Seed = cfg.Seed
	opts.InitialConns = load
	if opts.ChurnEvents == 0 {
		opts.ChurnEvents = events
	}
	if opts.WarmupEvents == 0 {
		opts.WarmupEvents = warmup
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, nil, err
	}
	ev, err := sys.Evaluate()
	if err != nil {
		return nil, nil, err
	}
	return ev, sys, nil
}
