package experiments

import (
	"fmt"

	"drqos/internal/core"
)

// Fig4Point is one data point of Figure 4: average bandwidth as the link
// failure rate γ varies (9-state chain, λ = μ = 0.001).
type Fig4Point struct {
	// Gamma is the link failure rate.
	Gamma float64
	// Avg2000 and Avg3000 are the average bandwidths with 2000 and 3000
	// loaded real-time channels (the figure's two lines).
	Avg2000, Avg3000 float64
	// Analytic2000/Analytic3000 are the paper-model Markov estimates.
	Analytic2000, Analytic3000 float64
	// General2000/General3000 are the general-model estimates, which use
	// the separately measured per-failure involvement probability instead
	// of reusing Pf for the γ term (see DESIGN.md refinement 5 and
	// EXPERIMENTS.md Figure 4).
	General2000, General3000 float64
	// Failures3000 counts injected failures in the 3000-channel run.
	Failures3000 int64
}

// Fig4Result is the full Figure 4 series.
type Fig4Result struct {
	Points []Fig4Point
}

// Fig4 regenerates Figure 4. The paper's finding: the failure rate has no
// visible effect on the average bandwidth "since the link failure rate is
// too small compared to the DR-connection request arrival and termination
// rates".
func Fig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	gammas := []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	loads := []int{2000, 3000}
	if cfg.Scale == ScaleQuick {
		gammas = []float64{1e-6, 1e-4, 1e-2}
		loads = []int{1000, 2000}
	}
	// The sweep grid is flattened to (γ, load) jobs so the pool sees every
	// independent simulation at once, then reassembled per γ in order.
	type job struct {
		gamma float64
		load  int
	}
	type cell struct {
		sim, restart, general float64
		failures              int64
	}
	jobs := make([]job, 0, len(gammas)*len(loads))
	for _, g := range gammas {
		for _, load := range loads {
			jobs = append(jobs, job{gamma: g, load: load})
		}
	}
	cells, err := runPoints(cfg, jobs, func(j job) (cell, error) {
		ev, _, err := evaluateAt(cfg, core.Options{Gamma: j.gamma, RepairRate: 0.01}, j.load)
		if err != nil {
			return cell{}, fmt.Errorf("experiments: fig4 at γ=%v load=%d: %w", j.gamma, j.load, err)
		}
		return cell{
			sim:      ev.Sim.AvgBandwidth,
			restart:  ev.RestartModel.MeanBandwidth,
			general:  ev.GeneralModel.MeanBandwidth,
			failures: ev.Sim.Failures,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{}
	for gi, g := range gammas {
		a, b := cells[gi*len(loads)], cells[gi*len(loads)+1]
		out.Points = append(out.Points, Fig4Point{
			Gamma:        g,
			Avg2000:      a.sim,
			Analytic2000: a.restart,
			General2000:  a.general,
			Avg3000:      b.sim,
			Analytic3000: b.restart,
			General3000:  b.general,
			Failures3000: b.failures,
		})
	}
	return out, nil
}

// Table returns the series as printed.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Title: "Figure 4: average bandwidth vs link failure rate",
		Columns: []Column{{"gamma", "%.0e"}, {"simA", "%.1f"}, {"markovA", "%.1f"}, {"generalA", "%.1f"},
			{"simB", "%.1f"}, {"markovB", "%.1f"}, {"generalB", "%.1f"}, {"failuresB", "%d"}},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []any{p.Gamma, p.Avg2000, p.Analytic2000, p.General2000,
			p.Avg3000, p.Analytic3000, p.General3000, p.Failures3000})
	}
	return t
}
