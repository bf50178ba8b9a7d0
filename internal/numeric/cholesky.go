package numeric

import "math"

// Cholesky is the lower-triangular Cholesky factor L of a symmetric
// positive-definite matrix, A = L·Lᵀ.
//
// The process-variation model (internal/variation) uses it to colour white
// Gaussian noise with a spatial correlation matrix: if z ~ N(0, I) then
// L·z ~ N(0, A). Every product that feeds a sum is written float64(x*y),
// which rounds it before the add, so no architecture fuses the two into
// one FMA and every chip's variation field is coloured to the same bytes
// everywhere (DESIGN.md §19, §22).
type Cholesky struct {
	n int
	l *Matrix
}

// FactorCholesky computes the Cholesky factorisation of a, which must be
// symmetric positive definite; otherwise ErrNotSPD is returned. Only the
// lower triangle of a is read.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("numeric: FactorCholesky requires a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= float64(lrowj[k] * lrowj[k])
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= float64(lrowi[k] * lrowj[k])
			}
			l.Set(i, j, s/d)
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// MulVec computes dst = L·z, colouring the white noise vector z.
// dst and z must have length N and must not alias. It returns dst.
func (c *Cholesky) MulVec(dst, z []float64) []float64 {
	if len(z) != c.n || len(dst) != c.n {
		panic("numeric: Cholesky.MulVec dimension mismatch")
	}
	for i := 0; i < c.n; i++ {
		row := c.l.Row(i)
		s := 0.0
		for j := 0; j <= i; j++ {
			s += float64(row[j] * z[j])
		}
		dst[i] = s
	}
	return dst
}

// Solve solves A·x = b using the factorisation (forward then back
// substitution). dst may alias b. It returns dst.
//
//lint:ignore reachability thermal's tests solve their reference networks directly with it
func (c *Cholesky) Solve(dst, b []float64) []float64 {
	n := c.n
	if len(b) != n || len(dst) != n {
		panic("numeric: Cholesky.Solve dimension mismatch")
	}
	y := make([]float64, n)
	// L·y = b.
	for i := 0; i < n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= float64(row[j] * y[j])
		}
		y[i] = s / row[i]
	}
	// Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= float64(c.l.At(j, i) * y[j])
		}
		y[i] = s / c.l.At(i, i)
	}
	copy(dst, y)
	return dst
}
