package markov

import (
	"errors"
	"fmt"
	"math"

	"drqos/internal/linalg"
)

// The references the solver tests compare against: a validating
// constructor, the uniform-start steady state, and the dense LU solve of the
// stationary equations that GTH is checked against.

// NewChain wraps a generator matrix after validating its structure.
func NewChain(q *linalg.Matrix) (*Chain, error) {
	var maxAbs float64
	for i := 0; i < q.Rows(); i++ {
		for j := 0; j < q.Rows(); j++ {
			maxAbs = math.Max(maxAbs, math.Abs(q.At(i, j)))
		}
	}
	for i := 0; i < q.Rows(); i++ {
		var sum float64
		for j := 0; j < q.Rows(); j++ {
			v := q.At(i, j)
			if i != j && v < 0 {
				return nil, fmt.Errorf("markov: negative rate q[%d][%d]=%v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum) > 1e-9*math.Max(1, maxAbs) {
			return nil, fmt.Errorf("markov: row %d of generator sums to %v, want 0", i, sum)
		}
	}
	return &Chain{q: q}, nil
}

// Generator returns a copy of the generator matrix.
func (c *Chain) Generator() *linalg.Matrix { return c.q.Clone() }

// ZeroJumpMatrices returns empty (all-zero) A, B, T matrices of size n,
// convenient for building Params incrementally.
func ZeroJumpMatrices(n int) (a, b, t [][]float64) {
	mk := func() [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	return mk(), mk(), mk()
}

// SteadyState returns the stationary distribution π with πQ = 0, Σπ = 1.
// It first tries the numerically stable GTH state-reduction algorithm; if
// the chain is reducible (GTH hits a zero pivot), it falls back to the
// uniformized power iteration, which converges to the stationary
// distribution reachable from the uniform initial vector.
func (c *Chain) SteadyState() ([]float64, error) {
	if pi, err := c.SteadyStateGTH(); err == nil {
		return pi, nil
	}
	return c.SteadyStatePower(1e-12, 1_000_000)
}

// SteadyStatePower is the power iteration from the uniform vector.
func (c *Chain) SteadyStatePower(tol float64, maxIter int) ([]float64, error) {
	p0 := make([]float64, c.N())
	for i := range p0 {
		p0[i] = 1 / float64(len(p0))
	}
	return c.power(p0, tol, maxIter)
}

// SteadyStateLU solves the stationary equations with a dense LU factorization:
// replace the last equation of QᵀX = 0 by the normalization Σπ = 1.
func (c *Chain) SteadyStateLU() ([]float64, error) {
	n := c.N()
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(j, i, c.q.At(i, j))
		}
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := solveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSolvable, err)
	}
	for i, v := range pi {
		if v < -1e-9 {
			return nil, fmt.Errorf("%w: negative stationary probability π[%d]=%v", ErrNotSolvable, i, v)
		}
		if v < 0 {
			pi[i] = 0
		}
	}
	return pi, nil
}

// errSingular is returned when the factorization meets a zero pivot.
var errSingular = errors.New("linalg: matrix is singular")

// solveLinear solves A·x = b by LU factorization with partial pivoting,
// P·A = L·U, with L unit-diagonal in the strict lower triangle and U in the
// upper triangle of one working copy of A.
func solveLinear(a *linalg.Matrix, b []float64) ([]float64, error) {
	n := a.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: solve of %d equations with a %d-entry right-hand side", n, len(b))
	}
	lu := a.Clone()
	pivot := make([]int, n)
	for k := 0; k < n; k++ {
		// Select the pivot row: largest |value| in column k at or below row k.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max, p = v, i
			}
		}
		pivot[k] = p
		if max == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", errSingular, k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				v := lu.At(p, j)
				lu.Set(p, j, lu.At(k, j))
				lu.Set(k, j, v)
			}
		}
		pk := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pk
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	x := make([]float64, n)
	copy(x, b)
	// Apply the row permutation.
	for k := 0; k < n; k++ {
		if p := pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += lu.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / lu.At(i, i)
	}
	return x, nil
}
