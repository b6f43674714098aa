package experiments

import (
	"fmt"

	"drqos/internal/core"
)

// CoveragePoint is one data point of the coverage extension experiment
// (not in the paper): how dependability protection degrades as the link
// failure rate grows relative to the repair rate.
type CoveragePoint struct {
	// Gamma is the link failure rate; RepairRate is fixed at 0.01.
	Gamma float64
	// UnprotectedFrac is the time-weighted fraction of connections
	// running without a backup channel.
	UnprotectedFrac float64
	// DroppedPerFailure is the mean number of connections that lost
	// service per injected failure.
	DroppedPerFailure float64
	// Failures counts injected link failures during the run.
	Failures int64
	// AvgBandwidth is the surviving population's average reserved
	// bandwidth.
	AvgBandwidth float64
}

// CoverageResult is the protection-coverage sweep.
type CoverageResult struct {
	Points []CoveragePoint
}

// Coverage runs the protection-coverage extension: the paper guarantees
// every DR-connection one backup "even if component failures occur", but
// between a failover and re-protection a connection runs bare. This sweep
// quantifies that exposure window as γ grows toward the repair rate.
func Coverage(cfg Config) (*CoverageResult, error) {
	cfg = cfg.withDefaults()
	// The load sits near the admission knee: with spare capacity around,
	// re-protection succeeds instantly and exposure is ~0; near saturation
	// replacement backups are hard to admit and the exposure window opens.
	gammas := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	load := 4000
	if cfg.Scale == ScaleQuick {
		gammas = []float64{1e-4, 1e-2}
		load = 2500
	}
	points, err := runPoints(cfg, gammas, func(g float64) (CoveragePoint, error) {
		ev, _, err := evaluateAt(cfg, core.Options{Gamma: g, RepairRate: 0.01}, load)
		if err != nil {
			return CoveragePoint{}, fmt.Errorf("experiments: coverage at γ=%v: %w", g, err)
		}
		p := CoveragePoint{
			Gamma:           g,
			UnprotectedFrac: ev.Sim.UnprotectedFrac,
			Failures:        ev.Sim.Failures,
			AvgBandwidth:    ev.Sim.AvgBandwidth,
		}
		if ev.Sim.Failures > 0 {
			p.DroppedPerFailure = float64(ev.Sim.Dropped) / float64(ev.Sim.Failures)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return &CoverageResult{Points: points}, nil
}

// Table returns the sweep as printed.
func (r *CoverageResult) Table() *Table {
	t := &Table{
		Title: "Coverage extension: protection exposure vs failure rate (repair rate 0.01)",
		Columns: []Column{{"gamma", "%.0e"}, {"unprotectedFrac", "%.4f"}, {"droppedPerFailure", "%.3f"},
			{"failures", "%d"}, {"avgBW", "%.1f"}},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []any{p.Gamma, p.UnprotectedFrac, p.DroppedPerFailure, p.Failures, p.AvgBandwidth})
	}
	return t
}
