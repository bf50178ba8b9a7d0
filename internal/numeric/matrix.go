// Package numeric provides the small linear-algebra kernels of the
// simulator: MulMat, the dense product under every DCT stage of the
// thermal model and every Predict of the online thermal predictor, with
// an AVX2 kernel on amd64 that equals its Go kernel bit for bit (DESIGN.md
// §22); dense matrices with a Cholesky factorisation, which colours the
// correlated process-variation field (internal/variation) and serves the
// thermal tests as their direct reference solve; and the vector helpers
// and non-finite guards the models share. The sparse CSR matrix and
// conjugate-gradient solver of the sub-core thermal grid oracle live with
// that oracle, in internal/thermal's tests.
//
// The dense matrices are small (a few hundred to a few thousand rows:
// grid points of a variation map, nodes of a test's reference network),
// so simple dense algorithms with good cache behaviour beat anything
// fancy. A factorisation is computed once and reused.
package numeric

import (
	"errors"
	"fmt"
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
		// x − x is +0 for every finite x and NaN for ±Inf and NaN: one
		// subtraction and one comparison instead of three comparisons.
		if x-x != 0 {
			return false
		}
	}
	return true
}
