// Package linalg implements the dense matrix the Markov-chain solvers in
// internal/markov store generators in. It exists because the reproduction is
// stdlib-only; the feature set is deliberately limited to what those solvers
// require.
package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized r-by-c matrix. It panics if r or c is
// not positive, since a dimensionless matrix is always a programming error.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: NewMatrix(%d, %d) with non-positive dimension", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
