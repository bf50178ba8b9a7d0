package numeric

import "math"

// LU is an LU factorisation with partial pivoting of a square matrix,
// P·A = L·U. It is computed once and reused for many right-hand sides —
// the thermal grid model (thermal.GridModel) solves the identical
// conductance system for every window.
//
// The factors are stored on their row envelopes: row i of L from its
// first nonzero column up to (excluding) the unit diagonal, and row i of
// U from the diagonal up to its last nonzero column. Everything outside
// the envelope is an exact zero that a dense substitution would multiply
// and subtract, so the envelope solve returns the dense solve's bits (up
// to the sign of an exactly-zero component; see Solve). A thermal RC
// network couples each node to a few neighbours, so its factors keep
// about half of the dense entries.
type LU struct {
	n    int
	piv  []int // row permutation
	sign int   // permutation sign, for Det
	// Row i of L is l[lOff[i]:lOff[i+1]]; it covers the columns just
	// left of the diagonal, i−len(row) … i−1.
	l    []float64
	lOff []int
	// Row i of U is u[uOff[i]:uOff[i+1]]; it covers the columns
	// i … i+len(row)−1, so u[uOff[i]] is the pivot.
	u    []float64
	uOff []int
}

// FactorLU computes the pivoted LU factorisation of a. The input is not
// modified. FactorLU returns ErrSingular if a pivot underflows and
// ErrNonFinite if the input contains (or elimination produces) a NaN or
// infinite value.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic("numeric: FactorLU requires a square matrix")
	}
	if !AllFinite(a.Data) {
		return nil, ErrNonFinite
	}
	n := a.Rows
	f := &LU{n: n, piv: make([]int, n), sign: 1}
	for i := range f.piv {
		f.piv[i] = i
	}
	// Dense elimination on a scratch copy: L (unit diagonal, below) and
	// U (on and above) packed together.
	lu := a.Clone()
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		maxv := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				maxv, p = v, i
			}
		}
		if math.IsNaN(maxv) || math.IsInf(maxv, 0) {
			// Elimination overflowed: the factorisation is garbage even
			// though the input was finite.
			return nil, ErrNonFinite
		}
		if maxv < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	// The pivot scan only inspects one column per step, so an overflow in
	// a row it never pivots on could slip through; a final sweep is cheap
	// against the O(n³) factorisation.
	if !AllFinite(lu.Data) {
		return nil, ErrNonFinite
	}
	f.storeEnvelopes(lu)
	return f, nil
}

// storeEnvelopes copies the envelope of every row of the packed dense
// factors into f. Zero tests use ==, so a −0 counts as zero too.
func (f *LU) storeEnvelopes(lu *Matrix) {
	n := f.n
	f.lOff, f.uOff = make([]int, n+1), make([]int, n+1)
	for i := 0; i < n; i++ {
		row := lu.Row(i)
		lo := 0
		for lo < i && row[lo] == 0 {
			lo++
		}
		hi := n - 1
		for hi > i && row[hi] == 0 {
			hi--
		}
		f.l = append(f.l, row[lo:i]...)
		f.u = append(f.u, row[i:hi+1]...)
		f.lOff[i+1], f.uOff[i+1] = len(f.l), len(f.u)
	}
}

// SolveChecked is Solve with a non-finite guard: it solves A·x = b into
// dst and returns ErrNonFinite when b or the computed solution contains a
// NaN or infinite value (e.g. a right-hand side already poisoned upstream,
// or catastrophic growth in the back substitution).
func (f *LU) SolveChecked(dst, b []float64) error {
	if !AllFinite(b) {
		return ErrNonFinite
	}
	f.Solve(dst, b)
	if !AllFinite(dst) {
		return ErrNonFinite
	}
	return nil
}

// Solve solves A·x = b, writing the solution into dst (which may fully
// alias b — same backing array; partial overlap is not supported). dst
// and b must have length n. It returns dst.
//
// Both substitutions run over the stored row envelopes in the dense
// loop's column order. The dense loop would also subtract v·y[j] for
// every v == 0 outside an envelope; with y[j] finite that subtracts a
// zero, which leaves every partial sum unchanged except that it can turn
// an exact −0 into +0. So the result equals the dense substitution's bit
// for bit, apart from the sign of a component that is exactly zero.
//
// When dst and b are distinct, Solve is allocation-free: the permutation
// gathers straight into dst and both substitutions run in place. That is
// the grid model's call shape, so its solves stay off the heap. Only the
// aliased call pays for a scratch copy (the gather y = P·b must read all
// of b before any write lands).
func (f *LU) Solve(dst, b []float64) []float64 {
	n := f.n
	if len(b) != n || len(dst) != n {
		panic("numeric: LU.Solve dimension mismatch")
	}
	// Apply permutation: y = P·b.
	y := dst
	if n > 0 && &dst[0] == &b[0] {
		y = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-lower L. Each inner loop runs over
	// a row and the slice of y it multiplies, re-sliced to the row's
	// length so the compiler drops the bounds checks.
	for i := 1; i < n; i++ {
		row := f.l[f.lOff[i]:f.lOff[i+1]]
		ys := y[i-len(row):][:len(row)]
		s := y[i]
		for j, v := range row {
			s -= v * ys[j]
		}
		y[i] = s
	}
	// Back substitution with U; row[0] is the pivot.
	for i := n - 1; i >= 0; i-- {
		row := f.u[f.uOff[i]:f.uOff[i+1]]
		right := row[1:]
		ys := y[i+1:][:len(right)]
		s := y[i]
		for j, v := range right {
			s -= v * ys[j]
		}
		y[i] = s / row[0]
	}
	if n > 0 && &y[0] != &dst[0] {
		copy(dst, y)
	}
	return dst
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.u[f.uOff[i]]
	}
	return d
}

// SolveLinear is a convenience wrapper: it factors a and solves a·x = b.
// Use FactorLU directly when solving repeatedly against the same matrix.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	return f.Solve(x, b), nil
}
