package forecast

import (
	"errors"
	"math"
	"testing"
)

func TestWhatIfBeforeFirstSolve(t *testing.T) {
	f := New(Config{})
	if _, err := f.WhatIf(WhatIfRequest{}); !errors.Is(err, ErrNoForecast) {
		t.Fatalf("error = %v, want ErrNoForecast", err)
	}
}

// TestWhatIfCounterfactual checks the admission counterfactual's first-order
// properties: admitting load can only squeeze the standing population, more
// load squeezes harder, and the populations/probabilities scale as
// documented.
func TestWhatIfCounterfactual(t *testing.T) {
	h := newHarness(t, Config{MinEvents: 10})
	h.churn(200)
	base, err := h.f.SolveNow()
	if err != nil {
		t.Fatal(err)
	}

	one, err := h.f.WhatIf(WhatIfRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Count != 1 || one.MinKbps != 100 || one.MaxKbps != 500 || one.IncrementKbps != 50 {
		t.Errorf("defaulted request: %+v", one)
	}
	if one.BaseMeanKbps != base.MeanBandwidthKbps {
		t.Errorf("base mean %g, forecast mean %g", one.BaseMeanKbps, base.MeanBandwidthKbps)
	}
	if got := one.AliveAfter - one.AliveBefore; math.Abs(got-1) > 1e-9 {
		t.Errorf("modeled-spec count=1 must add exactly one channel, added %g", got)
	}
	if one.PfAfter < one.PfBefore {
		t.Errorf("Pf must not shrink under added load: %g → %g", one.PfBefore, one.PfAfter)
	}
	if one.MeanKbps > one.BaseMeanKbps+1e-9 {
		t.Errorf("added load raised the mean: %g → %g", one.BaseMeanKbps, one.MeanKbps)
	}
	if math.Abs(one.DeltaMeanKbps-(one.MeanKbps-one.BaseMeanKbps)) > 1e-12 {
		t.Errorf("DeltaMeanKbps inconsistent: %+v", one)
	}
	var sum float64
	for _, p := range one.Pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("counterfactual pi sums to %g", sum)
	}
	if one.IdealMeanKbps <= 0 {
		t.Errorf("ideal reference missing despite capacity+links config: %+v", one)
	}
	if one.Reason == "" {
		t.Error("reason must always be populated")
	}

	many, err := h.f.WhatIf(WhatIfRequest{Count: 500})
	if err != nil {
		t.Fatal(err)
	}
	if many.MeanKbps > one.MeanKbps+1e-9 {
		t.Errorf("500 channels predict more bandwidth than 1: %g > %g", many.MeanKbps, one.MeanKbps)
	}
	if math.Abs(many.AliveAfter-many.AliveBefore-500) > 1e-6 {
		t.Errorf("count=500 added %g channels", many.AliveAfter-many.AliveBefore)
	}

	// A half-weight spec adds half a channel-equivalent.
	half, err := h.f.WhatIf(WhatIfRequest{MinKbps: 100, MaxKbps: 250, IncrementKbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := half.AliveAfter - half.AliveBefore; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("250/500-weight request must add 0.5 channel-equivalents, added %g", got)
	}

	if _, err := h.f.WhatIf(WhatIfRequest{MinKbps: 300, MaxKbps: 100, IncrementKbps: 50}); err == nil {
		t.Error("invalid counterfactual spec must be rejected")
	}
	if _, err := h.f.WhatIf(WhatIfRequest{Count: -5}); err == nil {
		t.Error("a negative count must be rejected")
	}
}

// TestDeltaTuningCandidates checks the increment auto-tuning: every coarser
// Δ that evenly grids the 100..500 range is scored, quantization loss grows
// and bucket-crossing churn shrinks as Δ coarsens, and the recommendation
// is a scored candidate within the loss tolerance.
func TestDeltaTuningCandidates(t *testing.T) {
	h := newHarness(t, Config{MinEvents: 10})
	h.churn(200)
	if _, err := h.f.SolveNow(); err != nil {
		t.Fatal(err)
	}
	resp, err := h.f.WhatIf(WhatIfRequest{})
	if err != nil {
		t.Fatal(err)
	}
	dt := resp.DeltaTuning
	if dt == nil {
		t.Fatal("delta tuning missing")
	}

	wantInc := []int64{50, 100, 200, 400}
	wantStates := []int{9, 5, 3, 2}
	if len(dt.Candidates) != len(wantInc) {
		t.Fatalf("candidates = %+v, want increments %v", dt.Candidates, wantInc)
	}
	for i, c := range dt.Candidates {
		if c.IncrementKbps != wantInc[i] || c.States != wantStates[i] {
			t.Errorf("candidate %d = Δ%d/%d states, want Δ%d/%d", i, c.IncrementKbps, c.States, wantInc[i], wantStates[i])
		}
	}
	if math.Abs(dt.Candidates[0].QuantLossKbps) > 1e-9 {
		t.Errorf("the current grid quantizes losslessly, got loss %g", dt.Candidates[0].QuantLossKbps)
	}
	for i := 1; i < len(dt.Candidates); i++ {
		if dt.Candidates[i].QuantLossKbps < dt.Candidates[i-1].QuantLossKbps-1e-9 {
			t.Errorf("quantization loss must grow with Δ: %+v", dt.Candidates)
		}
		if dt.Candidates[i].ChurnPerSec > dt.Candidates[i-1].ChurnPerSec+1e-9 {
			t.Errorf("bucket-crossing churn must shrink with Δ: %+v", dt.Candidates)
		}
	}

	found := false
	for _, c := range dt.Candidates {
		if c.IncrementKbps == dt.RecommendedKbps {
			found = true
			if c.QuantLossKbps > quantLossTolerance*400+1e-9 {
				t.Errorf("recommended Δ%d loses %g Kb/s, beyond tolerance", c.IncrementKbps, c.QuantLossKbps)
			}
		}
	}
	if !found {
		t.Errorf("recommended Δ%d is not a scored candidate", dt.RecommendedKbps)
	}
	if dt.Rationale == "" {
		t.Error("rationale must be populated")
	}
}
