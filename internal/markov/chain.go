package markov

import (
	"errors"
	"fmt"
	"math"

	"drqos/internal/linalg"
	"drqos/internal/qos"
)

// ErrNotSolvable reports a chain whose steady state could not be computed.
var ErrNotSolvable = errors.New("markov: chain not solvable")

// Chain is a finite continuous-time Markov chain given by its generator
// matrix Q (off-diagonal entries are non-negative rates; rows sum to zero).
type Chain struct {
	q *linalg.Matrix
}

// Build assembles the §3.2 generator from the paper's transition rules:
//
//	rate(i→j) = Pf·A[i][j]·(λ+γ)            for i > j (arrivals & failures)
//	rate(i→j) = Ps·B[i][j]·λ + Pf·T[i][j]·μ  for i < j (indirect chaining &
//	                                          terminations)
func Build(p Params) (*Chain, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	q := linalg.NewMatrix(p.N, p.N)
	for i := 0; i < p.N; i++ {
		var out float64
		for j := 0; j < p.N; j++ {
			if i == j {
				continue
			}
			var r float64
			if i > j {
				r = p.Pf * p.A[i][j] * (p.Lambda + p.Gamma)
			} else {
				r = p.Ps*p.B[i][j]*p.Lambda + p.Pf*p.T[i][j]*p.Mu
			}
			if r > 0 {
				q.Set(i, j, r)
				out += r
			}
		}
		q.Set(i, i, -out)
	}
	return &Chain{q: q}, nil
}

// N returns the number of states.
func (c *Chain) N() int { return c.q.Rows() }

// Rate returns the transition rate from state i to state j.
func (c *Chain) Rate(i, j int) float64 { return c.q.At(i, j) }

// SteadyStateGTH implements the Grassmann-Taksar-Heyman state-reduction
// algorithm (the subtraction-free method SHARPE-class tools use): states
// are censored from last to first, then the stationary vector is recovered
// by forward substitution. It requires an irreducible chain.
func (c *Chain) SteadyStateGTH() ([]float64, error) {
	n := c.N()
	a := c.q.Clone()
	for k := n - 1; k >= 1; k-- {
		var s float64
		for j := 0; j < k; j++ {
			s += a.At(k, j)
		}
		if s <= 0 {
			return nil, fmt.Errorf("%w: state %d cannot reach lower-indexed states (reducible chain)", ErrNotSolvable, k)
		}
		// Scale column k, then fold state k's behaviour into the rest.
		for i := 0; i < k; i++ {
			a.Set(i, k, a.At(i, k)/s)
		}
		for i := 0; i < k; i++ {
			f := a.At(i, k)
			if f == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				a.Add(i, j, f*a.At(k, j))
			}
		}
	}
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var s float64
		for i := 0; i < k; i++ {
			s += pi[i] * a.At(i, k)
		}
		pi[k] = s
	}
	var total float64
	for _, v := range pi {
		total += v
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi, nil
}

// power computes the stationary distribution via uniformization: P = I +
// Q/Λ with Λ slightly above the largest exit rate, then power iteration from
// p0 until the change is below tol. For a reducible chain the result is the
// limiting distribution reachable from p0.
func (c *Chain) power(p0 []float64, tol float64, maxIter int) ([]float64, error) {
	n := c.N()
	pi := make([]float64, n)
	copy(pi, p0)
	lam := 0.0
	for i := 0; i < n; i++ {
		if r := -c.q.At(i, i); r > lam {
			lam = r
		}
	}
	if lam == 0 {
		return pi, nil // no dynamics: every distribution is stationary
	}
	lam *= 1.05 // strict aperiodicity margin
	next := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		copy(next, pi)
		// next = pi * (I + Q/lam)
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				next[j] += pi[i] * c.q.At(i, j) / lam
			}
		}
		var diff, sum float64
		for j := 0; j < n; j++ {
			diff += math.Abs(next[j] - pi[j])
			sum += next[j]
		}
		// Renormalize against accumulated fp drift.
		for j := 0; j < n; j++ {
			pi[j] = next[j] / sum
		}
		if diff < tol {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("%w: power iteration did not converge in %d iterations", ErrNotSolvable, maxIter)
}

// MeanBandwidth returns E[B] = Σ π_i · (Bmin + i·Δ) in Kb/s — the paper's
// "average bandwidth reserved for each primary channel".
func MeanBandwidth(pi []float64, spec qos.ElasticSpec) (float64, error) {
	if len(pi) != spec.States() {
		return 0, fmt.Errorf("markov: distribution over %d states, spec has %d", len(pi), spec.States())
	}
	var mean float64
	for i, p := range pi {
		mean += p * float64(spec.Bandwidth(i))
	}
	return mean, nil
}
