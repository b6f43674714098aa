package experiments

import (
	"fmt"

	"drqos/internal/core"
)

// AblationDRow compares the §2.1.1 route-discovery strategies at one load.
type AblationDRow struct {
	Load int
	// FloodAcceptance / SeqAcceptance are the acceptance ratios.
	FloodAcceptance, SeqAcceptance float64
	// FloodAvgBW / SeqAvgBW are the average reserved bandwidths.
	FloodAvgBW, SeqAvgBW float64
	// FloodHops / SeqHops are the mean primary-route lengths.
	FloodHops, SeqHops float64
}

// AblationDResult is the route-discovery comparison.
type AblationDResult struct {
	Rows []AblationDRow
}

// AblationD contrasts bounded flooding (parallel search) with the
// sequential shortest-route baseline. The paper argues flooding finds
// qualified routes fast at the cost of request traffic; sequential search
// checks "shortest routes ... first, sequentially one by one" and can miss
// longer detours that still have capacity, so its acceptance drops earlier
// under load.
func AblationD(cfg Config) (*AblationDResult, error) {
	cfg = cfg.withDefaults()
	events, warmup := cfg.churn()
	// Flattened to (load, strategy) jobs so both arms of a row parallelize.
	type job struct {
		load       int
		sequential bool
	}
	type cell struct {
		acc, bw, hops float64
	}
	loads := cfg.loads()
	jobs := make([]job, 0, 2*len(loads))
	for _, load := range loads {
		jobs = append(jobs, job{load: load}, job{load: load, sequential: true})
	}
	cells, err := runPoints(cfg, jobs, func(j job) (cell, error) {
		arm := "flood"
		if j.sequential {
			arm = "sequential"
		}
		sys, err := core.NewSystem(core.Options{
			Seed:              cfg.Seed,
			InitialConns:      j.load,
			ChurnEvents:       events,
			WarmupEvents:      warmup,
			SequentialRouting: j.sequential,
		})
		if err != nil {
			return cell{}, fmt.Errorf("experiments: ablation D %s at %d: %w", arm, j.load, err)
		}
		ev, err := sys.Evaluate()
		if err != nil {
			return cell{}, fmt.Errorf("experiments: ablation D %s at %d: %w", arm, j.load, err)
		}
		r := ev.Sim
		c := cell{bw: r.AvgBandwidth, hops: r.AvgHops}
		if r.Offered > 0 {
			c.acc = float64(r.Established) / float64(r.Offered)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	out := &AblationDResult{}
	for i, load := range loads {
		f, s := cells[2*i], cells[2*i+1]
		out.Rows = append(out.Rows, AblationDRow{
			Load:            load,
			FloodAcceptance: f.acc, SeqAcceptance: s.acc,
			FloodAvgBW: f.bw, SeqAvgBW: s.bw,
			FloodHops: f.hops, SeqHops: s.hops,
		})
	}
	return out, nil
}

// Table returns the comparison as printed.
func (r *AblationDResult) Table() *Table {
	t := &Table{
		Title: "Ablation D: bounded flooding vs sequential route selection",
		Columns: []Column{{"load", "%d"}, {"floodAcc", "%.3f"}, {"seqAcc", "%.3f"}, {"floodBW", "%.1f"},
			{"seqBW", "%.1f"}, {"floodHops", "%.2f"}, {"seqHops", "%.2f"}},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{row.Load, row.FloodAcceptance, row.SeqAcceptance,
			row.FloodAvgBW, row.SeqAvgBW, row.FloodHops, row.SeqHops})
	}
	return t
}
