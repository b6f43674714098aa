package linalg

// The rest of the dense kernel — constructors, products, norms and the LU
// solve — is exercised only by this package's tests, so it lives here.

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible dimensions")

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("%w: empty row set", ErrShape)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(row), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], row)
	}
	return m, nil
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Transpose returns a new transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MatMul returns the product a·b.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d)·(%dx%d)", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.Add(i, j, aik*b.At(k, j))
			}
		}
	}
	return out, nil
}

// MatVec returns the product m·x.
func (m *Matrix) MatVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("%w: matrix %dx%d, vector %d", ErrShape, m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// VecMat returns the product xᵀ·m as a vector.
func (m *Matrix) VecMat(x []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("%w: vector %d, matrix %dx%d", ErrShape, len(x), m.rows, m.cols)
	}
	out := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out, nil
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// LU holds an LU factorization with partial pivoting: P·A = L·U, where L has
// a unit diagonal and is stored in the strict lower triangle of lu, and U in
// the upper triangle (including the diagonal).
type LU struct {
	lu    *Matrix
	pivot []int
	sign  int
}

// Factorize computes the LU factorization of a square matrix with partial
// pivoting. It returns ErrSingular if a pivot is exactly zero.
func Factorize(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Factorize on %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1

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
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			swapRows(lu, p, k)
			sign = -sign
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
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

func swapRows(m *Matrix, a, b int) {
	ra := m.data[a*m.cols : (a+1)*m.cols]
	rb := m.data[b*m.cols : (b+1)*m.cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// Solve solves A·x = b using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	x := make([]float64, n)
	copy(x, b)
	// Apply the row permutation.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("%w: zero diagonal in U at %d", ErrSingular, i)
		}
		x[i] = (x[i] - s) / d
	}
	return x, nil
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveLinear is a convenience wrapper: factorize A and solve A·x = b.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Norm1 returns the L1 norm of a vector.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the max-abs norm of a vector.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Dot returns the inner product of two equal-length vectors. It panics on a
// length mismatch, which is always a programming error in this codebase.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
