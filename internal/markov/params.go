// Package markov implements the paper's analytic model (§3.2): a
// continuous-time Markov chain over the N bandwidth states of one primary
// channel, with transition rates assembled from the measured probabilities
// Pf, Ps and the conditional jump matrices A (downward: arrivals and
// failures), B (upward: indirectly chained arrivals) and T (upward:
// terminations). It provides steady-state solvers (GTH state reduction and
// a dense LU solve) and a transient solver (uniformization), replacing the
// SHARPE package [15] the paper used.
package markov

import (
	"errors"
	"fmt"
)

// ErrInvalidParams reports a malformed model parameterization.
var ErrInvalidParams = errors.New("markov: invalid parameters")

// Params holds everything needed to build the §3.2 generator matrix.
type Params struct {
	// N is the number of bandwidth states (5 or 9 in the paper).
	N int
	// Lambda is the DR-connection request arrival rate λ.
	Lambda float64
	// Mu is the DR-connection termination rate μ (the paper assumes λ=μ
	// for steady state, but the model does not require it).
	Mu float64
	// Gamma is the link failure rate γ.
	Gamma float64
	// Pf is the probability that a channel shares at least one link with
	// the newly-arrived (or terminating) channel.
	Pf float64
	// Ps is the probability that a channel is indirectly chained with the
	// newly-arrived channel.
	Ps float64
	// A[i][j] is the downward jump distribution (i > j): the probability a
	// directly chained channel in state i lands in state j after an
	// arrival or backup activation.
	A [][]float64
	// B[i][j] is the upward jump distribution (i < j) for indirectly
	// chained channels at arrivals.
	B [][]float64
	// T[i][j] is the upward jump distribution (i < j) at terminations of
	// link-sharing channels.
	T [][]float64
}

// Validate checks dimensions, ranges and the directionality constraints
// (A strictly lower-triangular, B and T strictly upper-triangular, rows
// summing to ≤1; sub-stochastic rows are allowed because the complement is
// the no-change probability).
func (p *Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("%w: N=%d, need >=2", ErrInvalidParams, p.N)
	}
	if p.Lambda < 0 || p.Mu < 0 || p.Gamma < 0 {
		return fmt.Errorf("%w: negative rate (λ=%v μ=%v γ=%v)", ErrInvalidParams, p.Lambda, p.Mu, p.Gamma)
	}
	if p.Pf < 0 || p.Pf > 1 || p.Ps < 0 || p.Ps > 1 {
		return fmt.Errorf("%w: Pf=%v Ps=%v outside [0,1]", ErrInvalidParams, p.Pf, p.Ps)
	}
	check := func(name string, m [][]float64, lower bool) error {
		if len(m) != p.N {
			return fmt.Errorf("%w: %s has %d rows, want %d", ErrInvalidParams, name, len(m), p.N)
		}
		for i, row := range m {
			if len(row) != p.N {
				return fmt.Errorf("%w: %s row %d has %d cols, want %d", ErrInvalidParams, name, i, len(row), p.N)
			}
			var sum float64
			for j, v := range row {
				if v < 0 || v > 1 {
					return fmt.Errorf("%w: %s[%d][%d]=%v outside [0,1]", ErrInvalidParams, name, i, j, v)
				}
				if v > 0 {
					if lower && j >= i {
						return fmt.Errorf("%w: %s[%d][%d]=%v must be strictly below the diagonal", ErrInvalidParams, name, i, j, v)
					}
					if !lower && j <= i {
						return fmt.Errorf("%w: %s[%d][%d]=%v must be strictly above the diagonal", ErrInvalidParams, name, i, j, v)
					}
				}
				sum += v
			}
			if sum > 1+1e-9 {
				return fmt.Errorf("%w: %s row %d sums to %v > 1", ErrInvalidParams, name, i, sum)
			}
		}
		return nil
	}
	if err := check("A", p.A, true); err != nil {
		return err
	}
	if err := check("B", p.B, false); err != nil {
		return err
	}
	return check("T", p.T, false)
}
