// Package numeric provides the small linear-algebra kernels of the
// simulator: dense matrices with a Cholesky factorisation, which colours
// the correlated process-variation field (internal/variation) and serves
// the thermal tests as their direct reference solve, plus the vector
// helpers and non-finite guards the models share. The sparse CSR matrix
// and conjugate-gradient solver of the sub-core thermal grid oracle live
// with that oracle, in internal/thermal's tests.
//
// The dense matrices are small (a few hundred to a few thousand rows:
// grid points of a variation map, nodes of a test's reference network),
// so simple dense algorithms with good cache behaviour beat anything
// fancy. A factorisation is computed once and reused.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-initialised Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("numeric: invalid matrix shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec computes dst = m · x. dst must have length m.Rows and x length
// m.Cols; dst and x must not alias. It returns dst for chaining.
func (m *Matrix) MulVec(dst, x []float64) []float64 {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("numeric: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// ErrNotSPD is returned by Cholesky when the input is not symmetric
// positive definite.
var ErrNotSPD = errors.New("numeric: matrix is not symmetric positive definite")

// ErrNonFinite is wrapped by every error that reports a NaN or infinite
// value: thermal's *Checked solves and internal/stats. Catching it at the
// solver boundary keeps non-finite temperatures out of the aging tables,
// where they would silently poison every downstream lifetime statistic.
var ErrNonFinite = errors.New("numeric: non-finite value encountered")

// AllFinite reports whether every element of v is finite (no NaN, no ±Inf).
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
