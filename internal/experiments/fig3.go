package experiments

import (
	"fmt"

	"drqos/internal/core"
)

// Fig3Point is one data point of Figure 3: average bandwidth as the number
// of nodes grows (Waxman parameters held fixed, 3000 loaded connections).
type Fig3Point struct {
	// Nodes is the network size.
	Nodes int
	// Links is the resulting physical link count (the paper overlays the
	// edge count, which "increases rapidly with the number of nodes when
	// the parameters of Waxman distribution remain unchanged").
	Links int
	// SimAvg and Analytic are the two lines of the figure.
	SimAvg, Analytic float64
	// Alive is the accepted population.
	Alive int
}

// Fig3Result is the full Figure 3 series.
type Fig3Result struct {
	Points []Fig3Point
	// LoadedConns is the per-point load (3000 in the paper).
	LoadedConns int
}

// Fig3 regenerates Figure 3. The sweep holds the Waxman parameters fixed
// while growing the network at constant node density, which reproduces the
// paper's sub-quadratic edge growth (its dotted overlay reaches ≈1600
// directed edges at 500 nodes, ≈4.5× the 100-node count).
func Fig3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	nodeCounts := []int{100, 200, 300, 400, 500}
	load := 3000
	if cfg.Scale == ScaleQuick {
		nodeCounts = []int{100, 200, 300}
		load = 1500
	}
	points, err := runPoints(cfg, nodeCounts, func(n int) (Fig3Point, error) {
		ev, sys, err := evaluateAt(cfg, core.Options{Nodes: n, ConstantDensity: true}, load)
		if err != nil {
			return Fig3Point{}, fmt.Errorf("experiments: fig3 at %d nodes: %w", n, err)
		}
		return Fig3Point{
			Nodes:    n,
			Links:    sys.Metrics().Edges,
			SimAvg:   ev.Sim.AvgBandwidth,
			Analytic: ev.RestartModel.MeanBandwidth,
			Alive:    ev.Sim.AliveAtEnd,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{LoadedConns: load, Points: points}, nil
}

// Table returns the series as printed.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 3: average bandwidth vs number of nodes (%d loaded connections)", r.LoadedConns),
		Columns: []Column{{"nodes", "%d"}, {"links", "%d"}, {"alive", "%d"}, {"sim", "%.1f"}, {"markov", "%.1f"}},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []any{p.Nodes, p.Links, p.Alive, p.SimAvg, p.Analytic})
	}
	return t
}
