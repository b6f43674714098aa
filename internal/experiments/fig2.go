package experiments

import (
	"fmt"

	"drqos/internal/core"
)

// Fig2Point is one data point of Figure 2: average bandwidth of a
// DR-connection as the number of DR-connections grows (100-node Waxman
// network, λ = μ = 0.001, γ = 0, 9-state chain with Δ = 50 Kb/s).
type Fig2Point struct {
	// Offered is the number of connection requests loaded.
	Offered int
	// Alive is the resulting population.
	Alive int
	// SimAvg is the simulated average reserved bandwidth (the solid line).
	SimAvg float64
	// SimCI is the 95% batch-means half-width of SimAvg.
	SimCI float64
	// Analytic is the §3.2 Markov-chain estimate (the dashed × line).
	Analytic float64
	// AnalyticRestart is the finite-lifetime refinement of this
	// reproduction (not in the paper; see DESIGN.md).
	AnalyticRestart float64
	// Ideal is the dotted reference line BW·Edge/(NChan·avghop).
	Ideal float64
}

// Fig2Result is the full Figure 2 series.
type Fig2Result struct {
	Points []Fig2Point
	// Links is the generated instance's physical link count (the paper's
	// instance: 177 physical = 354 directed).
	Links int
	// AvgHops is the final mean route length.
	AvgHops float64
}

// Fig2 regenerates Figure 2. The load points run on cfg.Workers workers;
// each is an independent simulation of the same topology seed.
func Fig2(cfg Config) (*Fig2Result, error) {
	cfg = cfg.withDefaults()
	type cell struct {
		point   Fig2Point
		links   int
		avgHops float64
	}
	cells, err := runPoints(cfg, cfg.loads(), func(load int) (cell, error) {
		ev, sys, err := evaluateAt(cfg, core.Options{}, load)
		if err != nil {
			return cell{}, fmt.Errorf("experiments: fig2 at load %d: %w", load, err)
		}
		return cell{
			links:   sys.Metrics().Edges,
			avgHops: ev.Sim.AvgHops,
			point: Fig2Point{
				Offered:         load,
				Alive:           ev.Sim.AliveAtEnd,
				SimAvg:          ev.Sim.AvgBandwidth,
				SimCI:           ev.Sim.AvgBandwidthCI95,
				Analytic:        ev.PaperModel.MeanBandwidth,
				AnalyticRestart: ev.RestartModel.MeanBandwidth,
				Ideal:           ev.IdealBandwidth,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{}
	for _, c := range cells {
		out.Links = c.links
		out.AvgHops = c.avgHops
		out.Points = append(out.Points, c.point)
	}
	return out, nil
}

// Table returns the series as printed.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 2: average bandwidth vs number of DR-connections (%d links, avg %.2f hops)",
			r.Links, r.AvgHops),
		Columns: []Column{{"offered", "%d"}, {"alive", "%d"}, {"sim", "%.1f"}, {"simCI", "±%.1f"},
			{"markov", "%.1f"}, {"markov_restart", "%.1f"}, {"ideal", "%.0f"}},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []any{p.Offered, p.Alive, p.SimAvg, p.SimCI, p.Analytic, p.AnalyticRestart, p.Ideal})
	}
	return t
}
