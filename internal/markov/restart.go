package markov

import (
	"fmt"
	"math"

	"drqos/internal/qos"
)

// WithRestart returns the finite-lifetime extension of the chain: the
// tagged channel dies at rate delta (per-channel termination rate μ/N̄) and
// is immediately replaced by a fresh channel whose level is drawn from the
// birth distribution beta (the post-establishment level distribution the
// simulator measures). The generator becomes
//
//	Q' = Q + delta · (𝟙·βᵀ − I)
//
// whose stationary distribution is the lifetime-averaged level distribution
// of a channel population — well-defined even when Q has no transitions at
// all (then π = β exactly, matching the empty-network limit where every
// channel just sits where it was admitted).
//
// The paper's §3.2 model omits birth and death of the tagged channel; this
// extension quantifies what that omission costs (see EXPERIMENTS.md).
func (c *Chain) WithRestart(beta []float64, delta float64) (*Chain, error) {
	n := c.N()
	if len(beta) != n {
		return nil, fmt.Errorf("%w: birth distribution over %d states, chain has %d", ErrInvalidParams, len(beta), n)
	}
	if delta < 0 {
		return nil, fmt.Errorf("%w: negative restart rate %v", ErrInvalidParams, delta)
	}
	var sum float64
	for _, v := range beta {
		if v < 0 {
			return nil, fmt.Errorf("%w: negative birth probability %v", ErrInvalidParams, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: birth distribution sums to %v", ErrInvalidParams, sum)
	}
	q := c.q.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			q.Add(i, j, delta*beta[j])
		}
		q.Add(i, i, -delta)
	}
	return &Chain{q: q}, nil
}

// SteadyStateFrom computes the stationary distribution, preferring GTH and
// falling back to power iteration started from p0. For reducible chains the
// result is the limiting distribution reachable from p0, which is the
// physically meaningful answer when p0 is the channel birth distribution.
func (c *Chain) SteadyStateFrom(p0 []float64) ([]float64, error) {
	if pi, err := c.SteadyStateGTH(); err == nil {
		return pi, nil
	}
	n := c.N()
	if len(p0) != n {
		return nil, fmt.Errorf("%w: initial distribution over %d states, chain has %d", ErrInvalidParams, len(p0), n)
	}
	return c.power(p0, 1e-12, 1_000_000)
}

// Solve is the last step of the §3.3 pipeline, shared by the batch
// evaluation, the live forecaster and drtrace: the stationary distribution
// of c — of its restart extension when delta > 0 — reached from the birth
// distribution, and the mean bandwidth under it.
func Solve(c *Chain, birth []float64, delta float64, spec qos.ElasticSpec) (pi []float64, mean float64, err error) {
	if delta > 0 {
		if c, err = c.WithRestart(birth, delta); err != nil {
			return nil, 0, err
		}
	}
	if pi, err = c.SteadyStateFrom(birth); err != nil {
		return nil, 0, err
	}
	mean, err = MeanBandwidth(pi, spec)
	return pi, mean, err
}
