package experiments

import (
	"fmt"

	"drqos/internal/core"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/sim"
)

// AblationARow contrasts elastic QoS with the single-value baselines at one
// load (the paper's §1 motivation: elastic accepts "substantially more"
// DR-connections than a high fixed request while utilizing resources far
// better than a minimal fixed request).
type AblationARow struct {
	Load int
	core.BaselineComparison
}

// AblationAResult is the elastic-vs-single-value comparison.
type AblationAResult struct {
	Rows []AblationARow
}

// AblationA runs the baseline comparison across loads.
func AblationA(cfg Config) (*AblationAResult, error) {
	cfg = cfg.withDefaults()
	events, warmup := cfg.churn()
	rows, err := runPoints(cfg, cfg.loads(), func(load int) (AblationARow, error) {
		sys, err := core.NewSystem(core.Options{
			Seed:         cfg.Seed,
			InitialConns: load,
			ChurnEvents:  events,
			WarmupEvents: warmup,
		})
		if err != nil {
			return AblationARow{}, err
		}
		cmp, err := sys.CompareBaselines()
		if err != nil {
			return AblationARow{}, fmt.Errorf("experiments: ablation A at load %d: %w", load, err)
		}
		return AblationARow{Load: load, BaselineComparison: *cmp}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationAResult{Rows: rows}, nil
}

// Table returns the comparison as printed.
func (r *AblationAResult) Table() *Table {
	t := &Table{
		Title: "Ablation A: elastic QoS vs single-value QoS baselines",
		Columns: []Column{{"load", "%d"}, {"elasticAcc", "%.3f"}, {"elasticBW", "%.1f"},
			{"fixminAcc", "%.3f"}, {"fixminBW", "%.1f"}, {"fixmaxAcc", "%.3f"}, {"fixmaxBW", "%.1f"}},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{row.Load, row.Elastic.AcceptanceRatio, row.Elastic.AvgBandwidth,
			row.FixedMin.AcceptanceRatio, row.FixedMin.AvgBandwidth,
			row.FixedMax.AcceptanceRatio, row.FixedMax.AvgBandwidth})
	}
	return t
}

// AblationBRow compares the two range-QoS adaptation policies (§2.2) on a
// heterogeneous-utility workload.
type AblationBRow struct {
	Policy string
	// HighUtilAvg / LowUtilAvg are the average bandwidths of the
	// high-utility (2.0) and low-utility (1.0) halves of the population.
	HighUtilAvg, LowUtilAvg float64
	// OverallAvg is the population-wide average.
	OverallAvg float64
}

// AblationBResult is the adaptation-policy comparison.
type AblationBResult struct {
	Rows []AblationBRow
}

// AblationB loads a network with alternating utility-1 and utility-2
// connections under each policy and reports who got the extras: the
// max-utility scheme lets high-utility channels monopolize, the coefficient
// scheme shares proportionally (§2.2).
func AblationB(cfg Config) (*AblationBResult, error) {
	cfg = cfg.withDefaults()
	load := 3000
	if cfg.Scale == ScaleQuick {
		load = 1500
	}
	policies := []qos.Policy{qos.CoefficientPolicy{}, qos.MaxUtilityPolicy{}}
	rows, err := runPoints(cfg, policies, func(policy qos.Policy) (AblationBRow, error) {
		sys, err := core.NewSystem(core.Options{Seed: cfg.Seed, Policy: policy})
		if err != nil {
			return AblationBRow{}, err
		}
		mgr, err := manager.New(sys.Graph(), manager.Config{
			Capacity:      core.PaperCapacity,
			Policy:        policy,
			RequireBackup: true,
		})
		if err != nil {
			return AblationBRow{}, err
		}
		// Deterministic heterogeneous loading: alternate utilities.
		src := newPairSource(cfg.Seed, sys.Graph().NumNodes())
		lowSpec := qos.DefaultSpec()
		highSpec := qos.DefaultSpec()
		highSpec.Utility = 2
		for i := 0; i < load; i++ {
			spec := lowSpec
			if i%2 == 1 {
				spec = highSpec
			}
			a, b := src.next()
			_, _ = mgr.Establish(a, b, spec)
		}
		var hiSum, loSum float64
		var hiN, loN int
		for _, id := range mgr.AliveIDs() {
			c := mgr.Conn(id)
			if c.Spec.Utility > 1 {
				hiSum += float64(c.Bandwidth())
				hiN++
			} else {
				loSum += float64(c.Bandwidth())
				loN++
			}
		}
		row := AblationBRow{Policy: policy.Name(), OverallAvg: mgr.AverageBandwidth()}
		if hiN > 0 {
			row.HighUtilAvg = hiSum / float64(hiN)
		}
		if loN > 0 {
			row.LowUtilAvg = loSum / float64(loN)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationBResult{Rows: rows}, nil
}

// Table returns the comparison as printed.
func (r *AblationBResult) Table() *Table {
	t := &Table{
		Title:   "Ablation B: max-utility vs coefficient adaptation (utilities 1 vs 2)",
		Columns: []Column{{"policy", "%s"}, {"highUtilBW", "%.1f"}, {"lowUtilBW", "%.1f"}, {"overallBW", "%.1f"}},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{row.Policy, row.HighUtilAvg, row.LowUtilAvg, row.OverallAvg})
	}
	return t
}

// AblationCRow compares backup multiplexing on/off at one load.
type AblationCRow struct {
	Load int
	// MuxAcceptance / NoMuxAcceptance are the acceptance ratios.
	MuxAcceptance, NoMuxAcceptance float64
	// MuxAvgBW / NoMuxAvgBW are the average primary bandwidths.
	MuxAvgBW, NoMuxAvgBW float64
	// MuxAlive / NoMuxAlive are the final populations.
	MuxAlive, NoMuxAlive int
}

// AblationCResult is the multiplexing ablation.
type AblationCResult struct {
	Rows []AblationCRow
}

// AblationC quantifies §2.1.2's claim that multiplexing backups
// ("overbooking") reduces the resources reserved for protection: without it
// every backup reserves its own spare and far fewer DR-connections fit.
func AblationC(cfg Config) (*AblationCResult, error) {
	cfg = cfg.withDefaults()
	events, warmup := cfg.churn()
	// Flattened to (load, multiplexing) jobs: the on/off arms of one row
	// are independent simulations and can run on different workers.
	type job struct {
		load    int
		disable bool
	}
	loads := cfg.loads()
	jobs := make([]job, 0, 2*len(loads))
	for _, load := range loads {
		jobs = append(jobs, job{load: load}, job{load: load, disable: true})
	}
	cells, err := runPoints(cfg, jobs, func(j job) (*sim.Result, error) {
		arm := "mux"
		if j.disable {
			arm = "no-mux"
		}
		sys, err := core.NewSystem(core.Options{
			Seed:                      cfg.Seed,
			InitialConns:              j.load,
			ChurnEvents:               events,
			WarmupEvents:              warmup,
			DisableBackupMultiplexing: j.disable,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation C %s at %d: %w", arm, j.load, err)
		}
		ev, err := sys.Evaluate()
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation C %s at %d: %w", arm, j.load, err)
		}
		return ev.Sim, nil
	})
	if err != nil {
		return nil, err
	}
	ratio := func(r *sim.Result) float64 {
		if r.Offered == 0 {
			return 0
		}
		return float64(r.Established) / float64(r.Offered)
	}
	out := &AblationCResult{}
	for i, load := range loads {
		mux, noMux := cells[2*i], cells[2*i+1]
		out.Rows = append(out.Rows, AblationCRow{
			Load:            load,
			MuxAcceptance:   ratio(mux),
			NoMuxAcceptance: ratio(noMux),
			MuxAvgBW:        mux.AvgBandwidth,
			NoMuxAvgBW:      noMux.AvgBandwidth,
			MuxAlive:        mux.AliveAtEnd,
			NoMuxAlive:      noMux.AliveAtEnd,
		})
	}
	return out, nil
}

// Table returns the comparison as printed.
func (r *AblationCResult) Table() *Table {
	t := &Table{
		Title: "Ablation C: backup multiplexing on vs off",
		Columns: []Column{{"load", "%d"}, {"muxAcc", "%.3f"}, {"nomuxAcc", "%.3f"}, {"muxBW", "%.1f"},
			{"nomuxBW", "%.1f"}, {"muxAlive", "%d"}, {"nomuxAlive", "%d"}},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{row.Load, row.MuxAcceptance, row.NoMuxAcceptance,
			row.MuxAvgBW, row.NoMuxAvgBW, row.MuxAlive, row.NoMuxAlive})
	}
	return t
}
