package experiments

import (
	"fmt"

	"drqos/internal/core"
	"drqos/internal/qos"
)

// Table1Row is one row of Table 1: average bandwidth under Markov chains
// with different numbers of states (Δ = 100 Kb/s → 5 states, Δ = 50 Kb/s →
// 9 states) on the Random (Waxman) and Tier (transit-stub) networks.
type Table1Row struct {
	// Channels is the number of connection requests loaded ("the number of
	// connections which have been tried to be set up" — the paper notes
	// most are rejected on the tier network).
	Channels int
	// Random5/Random9 are the analytic averages on the Waxman network.
	Random5, Random9 float64
	// RandomSim is the simulated average (9-state run) for reference.
	RandomSim float64
	// Tier5/Tier9 are the analytic averages on the transit-stub network.
	Tier5, Tier9 float64
	// TierSim is the simulated average (9-state run).
	TierSim float64
	// TierAlive is the accepted population on the tier network.
	TierAlive int
}

// Table1Result is the reproduced Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 regenerates Table 1. For each (network, increment) cell it runs
// the simulation with the corresponding elastic spec, solves the measured
// chain, and reports the analytic mean — the quantity the paper tabulates.
func Table1(cfg Config) (*Table1Result, error) {
	cfg = cfg.withDefaults()
	spec5 := qos.ElasticSpec{Min: 100, Max: 500, Increment: 100, Utility: 1}
	spec9 := qos.DefaultSpec() // Δ = 50

	// Each row needs four independent (network, increment) runs; the sweep
	// is flattened to load×4 jobs so the pool fills every worker.
	type job struct {
		kind core.TopologyKind
		spec qos.ElasticSpec
		load int
		name string
	}
	type cell struct {
		analytic float64
		sim      float64
		alive    int
	}
	loads := cfg.loads()
	jobs := make([]job, 0, 4*len(loads))
	for _, load := range loads {
		jobs = append(jobs,
			job{kind: core.TopologyWaxman, spec: spec5, load: load, name: "random/5"},
			job{kind: core.TopologyWaxman, spec: spec9, load: load, name: "random/9"},
			job{kind: core.TopologyTransitStub, spec: spec5, load: load, name: "tier/5"},
			job{kind: core.TopologyTransitStub, spec: spec9, load: load, name: "tier/9"},
		)
	}
	cells, err := runPoints(cfg, jobs, func(j job) (cell, error) {
		ev, _, err := evaluateAt(cfg, core.Options{Kind: j.kind, Spec: j.spec}, j.load)
		if err != nil {
			return cell{}, fmt.Errorf("experiments: table1 %s at %d: %w", j.name, j.load, err)
		}
		return cell{
			analytic: ev.RestartModel.MeanBandwidth,
			sim:      ev.Sim.AvgBandwidth,
			alive:    ev.Sim.AliveAtEnd,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table1Result{}
	for i, load := range loads {
		r5, r9, t5, t9 := cells[4*i], cells[4*i+1], cells[4*i+2], cells[4*i+3]
		out.Rows = append(out.Rows, Table1Row{
			Channels:  load,
			Random5:   r5.analytic,
			Random9:   r9.analytic,
			RandomSim: r9.sim,
			Tier5:     t5.analytic,
			Tier9:     t9.analytic,
			TierSim:   t9.sim,
			TierAlive: t9.alive,
		})
	}
	return out, nil
}

// Table returns the rows as printed.
func (r *Table1Result) Table() *Table {
	t := &Table{
		Title: "Table 1: average bandwidth (Kbps) of Markov chains with 5 vs 9 states",
		Columns: []Column{{"channels", "%d"}, {"random5", "%.1f"}, {"random9", "%.1f"}, {"randomSim", "%.1f"},
			{"tier5", "%.1f"}, {"tier9", "%.1f"}, {"tierSim", "%.1f"}, {"tierAlive", "%d"}},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{row.Channels, row.Random5, row.Random9, row.RandomSim,
			row.Tier5, row.Tier9, row.TierSim, row.TierAlive})
	}
	return t
}
