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
// m.Cols; dst and x must not alias. It returns dst for chaining. Each
// dst[i] is summed in ascending column order (DotRows).
func (m *Matrix) MulVec(dst, x []float64) []float64 {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("numeric: MulVec dimension mismatch")
	}
	DotRows(dst, 1, x, m.Data)
	return dst
}

// DotRows sets out[j*stride] = 0 + a[0]·b_j[0] + a[1]·b_j[1] + … for
// every row b_j of b, which holds rows of len(a) > 0 values. Each sum is
// taken in ascending index and rounded after every product and every
// add, exactly as a one-accumulator loop would, so the result is the
// naive loop's bit for bit. Four rows run at once, each in its own
// accumulator: that breaks the single add-latency chain without
// reordering any sum (DESIGN.md §19). float64(x*y) rounds each product
// before its add, so no architecture fuses the two into one FMA.
func DotRows(out []float64, stride int, a, b []float64) {
	K := len(a)
	rows := len(b) / K
	j := 0
	for ; j+4 <= rows; j += 4 {
		// Reslicing to K lets the compiler drop the bounds checks.
		b0 := b[j*K:][:K]
		b1 := b[(j+1)*K:][:K]
		b2 := b[(j+2)*K:][:K]
		b3 := b[(j+3)*K:][:K]
		var s0, s1, s2, s3 float64
		for k, v := range a {
			s0 += float64(v * b0[k])
			s1 += float64(v * b1[k])
			s2 += float64(v * b2[k])
			s3 += float64(v * b3[k])
		}
		out[j*stride], out[(j+1)*stride], out[(j+2)*stride], out[(j+3)*stride] = s0, s1, s2, s3
	}
	for ; j < rows; j++ {
		bj := b[j*K:][:K]
		s := 0.0
		for k, v := range a {
			s += float64(v * bj[k])
		}
		out[j*stride] = s
	}
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
