package experiments

import (
	"fmt"

	"drqos/internal/core"
	"drqos/internal/stats"
)

// VariabilityResult reports how the headline comparison (simulated vs
// analytic average bandwidth) varies across independently generated
// topology instances and workloads. The paper reports single instances;
// this experiment quantifies how much instance luck matters.
type VariabilityResult struct {
	// Load is the per-replication offered load.
	Load int
	// Replications is the number of independent seeds.
	Replications int
	// Sim and Model summarize the per-replication averages.
	Sim, Model stats.Running
	// RelErr summarizes per-replication |model − sim|/sim.
	RelErr stats.Running
}

// Variability runs the mid-load Figure 2 point across several seeds.
func Variability(cfg Config) (*VariabilityResult, error) {
	cfg = cfg.withDefaults()
	reps := 5
	load := 3000
	if cfg.Scale == ScaleQuick {
		reps = 3
		load = 1500
	}
	out := &VariabilityResult{Load: load, Replications: reps}
	events, warmup := cfg.churn()
	reps0 := make([]int, reps)
	for r := range reps0 {
		reps0[r] = r
	}
	// The replications run in parallel; the streaming summaries are then
	// fed in replication order, keeping the floating-point accumulation
	// identical to the sequential path.
	type cell struct{ sim, model float64 }
	cells, err := runPoints(cfg, reps0, func(r int) (cell, error) {
		sys, err := core.NewSystem(core.Options{
			Seed:         cfg.Seed + uint64(r)*7919, // distinct prime-spaced seeds
			InitialConns: load,
			ChurnEvents:  events,
			WarmupEvents: warmup,
		})
		if err != nil {
			return cell{}, err
		}
		ev, err := sys.Evaluate()
		if err != nil {
			return cell{}, fmt.Errorf("experiments: variability rep %d: %w", r, err)
		}
		return cell{sim: ev.Sim.AvgBandwidth, model: ev.RestartModel.MeanBandwidth}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		out.Sim.Observe(c.sim)
		out.Model.Observe(c.model)
		rel := c.model - c.sim
		if rel < 0 {
			rel = -rel
		}
		out.RelErr.Observe(rel / c.sim)
	}
	return out, nil
}

// Table returns the summary as printed: one row per statistic, one column
// per series.
func (r *VariabilityResult) Table() *Table {
	return &Table{
		Title:   fmt.Sprintf("Variability: %d replications at load %d", r.Replications, r.Load),
		Columns: []Column{{"stat", "%s"}, {"sim", "%.1f"}, {"markov", "%.1f"}, {"relerr", "%.3f"}},
		Rows: [][]any{
			{"mean", r.Sim.Mean(), r.Model.Mean(), r.RelErr.Mean()},
			{"stddev", r.Sim.StdDev(), r.Model.StdDev(), r.RelErr.StdDev()},
			{"min", r.Sim.Min(), r.Model.Min(), r.RelErr.Min()},
			{"max", r.Sim.Max(), r.Model.Max(), r.RelErr.Max()},
		},
	}
}
