package forecast

import (
	"fmt"
	"math"

	"drqos/internal/qos"
	"drqos/internal/sim"
)

// WhatIfRequest describes an admission counterfactual: "what does the
// steady-state distribution look like if I admit Count channels of this
// spec". A zero spec means the modeled spec; a zero Count means 1, and a
// negative one is refused.
type WhatIfRequest struct {
	MinKbps       int64   `json:"min_kbps"`
	MaxKbps       int64   `json:"max_kbps"`
	IncrementKbps int64   `json:"increment_kbps"`
	Utility       float64 `json:"utility"`
	Count         int     `json:"count"`
}

func (r WhatIfRequest) spec(modeled qos.ElasticSpec) (qos.ElasticSpec, error) {
	if r.MinKbps == 0 && r.MaxKbps == 0 && r.IncrementKbps == 0 {
		return modeled, nil
	}
	s := qos.ElasticSpec{
		Min:       qos.Kbps(r.MinKbps),
		Max:       qos.Kbps(r.MaxKbps),
		Increment: qos.Kbps(r.IncrementKbps),
		Utility:   r.Utility,
	}
	if s.Increment == 0 {
		s.Increment = modeled.Increment
	}
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("forecast: what-if spec: %w", err)
	}
	return s, nil
}

// WhatIfResponse is the counterfactual answer: the re-solved steady-state
// distribution after the hypothetical admission, the resulting mean, and an
// admit recommendation, plus increment auto-tuning derived from the current
// solution.
type WhatIfResponse struct {
	// Count and the spec the counterfactual admitted.
	Count         int   `json:"count"`
	MinKbps       int64 `json:"min_kbps"`
	MaxKbps       int64 `json:"max_kbps"`
	IncrementKbps int64 `json:"increment_kbps"`

	// BaseMeanKbps is the current forecast's mean; MeanKbps the re-solved
	// mean after admission; DeltaMeanKbps their difference (≤ 0: admitting
	// load can only squeeze the standing population).
	BaseMeanKbps  float64 `json:"base_mean_kbps"`
	MeanKbps      float64 `json:"mean_kbps"`
	DeltaMeanKbps float64 `json:"delta_mean_kbps"`
	// Pi is the counterfactual steady-state distribution.
	Pi []float64 `json:"pi"`

	// Population scaling behind the counterfactual.
	AliveBefore float64 `json:"alive_before"`
	AliveAfter  float64 `json:"alive_after"`
	PfBefore    float64 `json:"pf_before"`
	PfAfter     float64 `json:"pf_after"`

	// IdealMeanKbps is the capacity-fair reference at the counterfactual
	// population (§4's "ideal" curve), 0 when the forecaster lacks
	// topology figures.
	IdealMeanKbps float64 `json:"ideal_mean_kbps,omitempty"`

	Headroom  float64 `json:"headroom"`
	Saturated bool    `json:"saturated"`
	Admit     bool    `json:"admit"`
	Reason    string  `json:"reason"`

	// Stale propagates the underlying forecast's staleness.
	Stale bool `json:"stale"`

	DeltaTuning *DeltaRecommendation `json:"delta_tuning,omitempty"`
}

// WhatIf answers an admission counterfactual against the current forecast.
//
// The counterfactual is a first-order population scaling, documented rather
// than exact: admitting n channels of relative weight w = reqMax/modelMax
// raises the standing population N̄ → N̄ + w·n, and the chaining
// probabilities Pf, Ps — which measure how much of the network a random
// channel touches — scale with the standing load ratio ρ = N̄'/N̄ (capped
// at 1). The per-channel death rate δ is population-invariant (exponential
// holding times), so the restart model is re-solved with the same birth
// distribution and δ but the scaled Pf', Ps'.
func (f *Forecaster) WhatIf(req WhatIfRequest) (*WhatIfResponse, error) {
	cur := f.Current()
	if cur == nil {
		return nil, ErrNoForecast
	}
	spec, err := req.spec(f.spec)
	if err != nil {
		return nil, err
	}
	count := req.Count
	switch {
	case count < 0:
		return nil, fmt.Errorf("forecast: what-if count %d is negative", count)
	case count == 0:
		count = 1
	}
	md := cur.Model
	if md.AvgAlive <= 0 {
		return nil, fmt.Errorf("%w: no standing population to scale", ErrNoForecast)
	}

	weight := 1.0
	if f.spec.Max > 0 {
		weight = float64(spec.Max) / float64(f.spec.Max)
	}
	aliveAfter := md.AvgAlive + weight*float64(count)
	rho := aliveAfter / md.AvgAlive
	md.Pf = math.Min(1, md.Pf*rho)
	md.Ps = math.Min(1, md.Ps*rho)

	sol, err := f.solve(&md)
	if err != nil {
		return nil, fmt.Errorf("forecast: what-if solve: %w", err)
	}
	mean := sol.Restart.MeanBandwidth
	headroom := f.headroom(mean)
	saturated := headroom <= saturationHeadroom
	resp := &WhatIfResponse{
		Count:         count,
		MinKbps:       int64(spec.Min),
		MaxKbps:       int64(spec.Max),
		IncrementKbps: int64(spec.Increment),
		BaseMeanKbps:  cur.MeanBandwidthKbps,
		MeanKbps:      mean,
		DeltaMeanKbps: mean - cur.MeanBandwidthKbps,
		Pi:            sol.Restart.Pi,
		AliveBefore:   cur.AvgAlive,
		AliveAfter:    aliveAfter,
		PfBefore:      cur.Pf,
		PfAfter:       md.Pf,
		Headroom:      headroom,
		Saturated:     saturated,
		Admit:         !saturated,
		Stale:         cur.Stale,
		DeltaTuning:   f.recommendDelta(cur),
	}
	if f.cfg.CapacityKbps > 0 && f.cfg.DirectedLinks > 0 && cur.AvgHops > 0 {
		resp.IdealMeanKbps = sim.IdealAverageBandwidth(
			f.cfg.CapacityKbps, f.cfg.DirectedLinks,
			int(math.Ceil(aliveAfter)), cur.AvgHops, f.spec)
	}
	if saturated {
		resp.Reason = fmt.Sprintf("predicted mean %.1f Kb/s leaves %.1f%% headroom (≤ %.1f%% saturation threshold)",
			mean, 100*headroom, 100*saturationHeadroom)
	} else {
		resp.Reason = fmt.Sprintf("predicted mean %.1f Kb/s keeps %.1f%% headroom", mean, 100*headroom)
	}
	if cur.Stale {
		resp.Reason += " (forecast stale: " + cur.LastError + ")"
	}
	return resp, nil
}

// DeltaCandidate scores one coarser increment Δ' = k·Δ for the modeled
// bandwidth range.
type DeltaCandidate struct {
	IncrementKbps int64 `json:"increment_kbps"`
	States        int   `json:"states"`
	// MeanKbps is the steady-state mean re-quantized to the coarser grid
	// (each fine level floors to its bucket's bandwidth, the conservative
	// reading of a coarser reservation ladder).
	MeanKbps float64 `json:"mean_kbps"`
	// QuantLossKbps is the mean bandwidth given up to quantization versus
	// the current grid.
	QuantLossKbps float64 `json:"quant_loss_kbps"`
	// ChurnPerSec is the per-channel rate of adaptations that still cross
	// a bucket boundary at this granularity — the QoS re-signalling rate a
	// coarser Δ buys down.
	ChurnPerSec float64 `json:"churn_per_sec"`
}

// DeltaRecommendation is the increment auto-tuning result: every coarser
// grid that evenly divides the range, scored by signalling churn versus
// quantization loss.
type DeltaRecommendation struct {
	Candidates      []DeltaCandidate `json:"candidates"`
	RecommendedKbps int64            `json:"recommended_kbps"`
	Rationale       string           `json:"rationale"`
}

// quantLossTolerance is the fraction of the bandwidth range a recommended
// coarser increment may cost in quantized mean bandwidth.
const quantLossTolerance = 0.10

// recommendDelta scores the coarser increments against the current
// solution. The churn figure combines the solved distribution π with the
// base generator's transition rates: churn(k) = Σᵢ πᵢ Σⱼ q(i→j) over jumps
// whose endpoints land in different k-buckets — exactly the re-signalling
// rate a channel population would see if levels were renegotiated only at
// the coarser granularity.
func (f *Forecaster) recommendDelta(cur *Forecast) *DeltaRecommendation {
	if cur.chain == nil {
		return nil
	}
	n := f.n
	span := float64(f.spec.Max - f.spec.Min)
	baseMean := cur.MeanBandwidthKbps
	rec := &DeltaRecommendation{}
	best := 0
	for k := 1; k <= n-1; k++ {
		if (n-1)%k != 0 {
			continue // Δ'=kΔ must evenly grid the range so Bmax stays reachable
		}
		var churn, mean float64
		for i := 0; i < n; i++ {
			mean += cur.Pi[i] * (float64(f.spec.Min) + float64((i/k)*k)*float64(f.spec.Increment))
			for j := 0; j < n; j++ {
				if i/k != j/k {
					churn += cur.Pi[i] * cur.chain.Rate(i, j)
				}
			}
		}
		c := DeltaCandidate{
			IncrementKbps: int64(f.spec.Increment) * int64(k),
			States:        (n-1)/k + 1,
			MeanKbps:      mean,
			QuantLossKbps: baseMean - mean,
			ChurnPerSec:   churn,
		}
		rec.Candidates = append(rec.Candidates, c)
		if c.QuantLossKbps <= quantLossTolerance*span {
			best = len(rec.Candidates) - 1 // candidates are ordered by k: last tolerable = coarsest
		}
	}
	if len(rec.Candidates) == 0 {
		return nil
	}
	b := rec.Candidates[best]
	rec.RecommendedKbps = b.IncrementKbps
	cur0 := rec.Candidates[0]
	rec.Rationale = fmt.Sprintf(
		"Δ=%d Kb/s cuts per-channel re-signalling from %.3g/s to %.3g/s for %.1f Kb/s quantized mean loss (tolerance %.0f Kb/s)",
		b.IncrementKbps, cur0.ChurnPerSec, b.ChurnPerSec, b.QuantLossKbps, quantLossTolerance*span)
	return rec
}
