// Package numeric provides the small linear-algebra kernels of the
// simulator: dense matrices with a Cholesky factorisation, which colours
// the correlated process-variation field (internal/variation) and serves
// the thermal tests as their direct reference solve, and a CSR matrix
// with a Jacobi-preconditioned conjugate-gradient solver, the one solver
// of the sub-core thermal grid (thermal.GridModel).
//
// The dense matrices are small (a few hundred to a few thousand rows:
// grid points of a variation map, nodes of a test's reference network),
// so simple dense algorithms with good cache behaviour beat anything
// fancy. A factorisation is computed once and reused, and the CG solver
// keeps its scratch vectors and warm start across solves.
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

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have the
// same length. The data is copied.
func NewMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("numeric: empty matrix literal")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("numeric: ragged matrix literal")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

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

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("numeric: Mul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MaxAbsDiff returns the maximum absolute element-wise difference between a
// and b, which must have identical shape.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("numeric: MaxAbsDiff shape mismatch")
	}
	// Seed from the first element, not a 0.0 sentinel: the zero seed is
	// only correct because the diffs are absolute values, and the pattern
	// invites copy-paste bugs into signed reductions (GridModel.reduceTiles
	// had one, DESIGN.md §15). Seeding from the data is correct either way.
	max := math.Abs(a.Data[0] - b.Data[0])
	for i := 1; i < len(a.Data); i++ {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
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
