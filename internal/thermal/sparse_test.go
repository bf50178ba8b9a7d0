package thermal

import (
	"fmt"
	"math"
	"sort"

	"github.com/kit-ces/hayat/internal/numeric"
)

// This file provides the tests' sparse linear algebra: a triplet
// accumulator, a compressed-sparse-row matrix and a preconditioned
// conjugate-gradient solver. The block model's node-by-node network and
// the sub-core grid networks (GridModel) are symmetric positive-definite
// and extremely sparse (≤ ~7 non-zeros per row), so CG with a Jacobi
// preconditioner scales the grid oracle to manycore floorplans (32×32
// cores and beyond) where a dense factorisation would be prohibitive in
// time and memory.

// Triplets accumulates (i, j, value) entries before CSR assembly.
// Duplicate coordinates are summed.
type Triplets struct {
	n    int
	vals map[[2]int]float64
}

// NewTriplets returns an accumulator for an n×n matrix.
func NewTriplets(n int) *Triplets {
	if n <= 0 {
		panic(fmt.Sprintf("numeric: invalid triplet dimension %d", n))
	}
	return &Triplets{n: n, vals: make(map[[2]int]float64)}
}

// N returns the matrix dimension.
func (t *Triplets) N() int { return t.n }

// Add accumulates v at (i, j).
func (t *Triplets) Add(i, j int, v float64) {
	if i < 0 || i >= t.n || j < 0 || j >= t.n {
		panic(fmt.Sprintf("numeric: triplet (%d,%d) outside %d×%d", i, j, t.n, t.n))
	}
	t.vals[[2]int{i, j}] += v
}

// At returns the accumulated value at (i, j).
func (t *Triplets) At(i, j int) float64 { return t.vals[[2]int{i, j}] }

// ToCSR assembles the compressed-sparse-row form (zero-valued
// accumulations are kept; they are harmless and rare).
func (t *Triplets) ToCSR() *CSR {
	rows := make([][]int, t.n)
	for key := range t.vals {
		rows[key[0]] = append(rows[key[0]], key[1])
	}
	c := &CSR{n: t.n, rowPtr: make([]int, t.n+1)}
	for i := 0; i < t.n; i++ {
		sort.Ints(rows[i])
		c.rowPtr[i+1] = c.rowPtr[i] + len(rows[i])
	}
	nnz := c.rowPtr[t.n]
	c.colIdx = make([]int, 0, nnz)
	c.values = make([]float64, 0, nnz)
	for i := 0; i < t.n; i++ {
		for _, j := range rows[i] {
			c.colIdx = append(c.colIdx, j)
			c.values = append(c.values, t.vals[[2]int{i, j}])
		}
	}
	return c
}

// ToDense assembles a dense matrix (for small systems / testing).
func (t *Triplets) ToDense() *numeric.Matrix {
	m := numeric.NewMatrix(t.n, t.n)
	for key, v := range t.vals {
		m.Set(key[0], key[1], v)
	}
	return m
}

// CSR is a compressed-sparse-row square matrix.
type CSR struct {
	n      int
	rowPtr []int
	colIdx []int
	values []float64
}

// N returns the dimension.
func (c *CSR) N() int { return c.n }

// NNZ returns the stored-entry count.
func (c *CSR) NNZ() int { return len(c.values) }

// MulVec computes dst = C·x. dst must not alias x: row i's output would
// overwrite an input element other rows still need. Aliasing is checked
// (same backing array ⇒ same base element for equal-length slices) and
// panics instead of silently corrupting the product.
func (c *CSR) MulVec(dst, x []float64) []float64 {
	if len(dst) != c.n || len(x) != c.n {
		panic("numeric: CSR.MulVec dimension mismatch")
	}
	if c.n > 0 && &dst[0] == &x[0] {
		panic("numeric: CSR.MulVec dst must not alias x")
	}
	for i := 0; i < c.n; i++ {
		s := 0.0
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			s += c.values[k] * x[c.colIdx[k]]
		}
		dst[i] = s
	}
	return dst
}

// Diagonal extracts the diagonal into dst (allocated when nil).
func (c *CSR) Diagonal(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.n)
	}
	for i := 0; i < c.n; i++ {
		dst[i] = 0
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			if c.colIdx[k] == i {
				dst[i] = c.values[k]
				break
			}
		}
	}
	return dst
}

// CGSolver solves SPD systems A·x = b by Jacobi-preconditioned conjugate
// gradients. It keeps its scratch vectors and the last solution as the
// warm start — repeated solves against slowly changing right-hand sides
// (the thermal grid model's windows) converge in a handful of iterations.
type CGSolver struct {
	a       *CSR
	invDiag []float64
	tol     float64
	maxIter int

	x, r, z, p, ap []float64
	// LastIterations reports the iteration count of the most recent Solve.
	LastIterations int
}

// NewCGSolver builds a solver. tol is the relative residual target
// (‖r‖₂/‖b‖₂); maxIter caps the iterations per solve.
func NewCGSolver(a *CSR, tol float64, maxIter int) (*CGSolver, error) {
	if tol <= 0 || maxIter < 1 {
		return nil, fmt.Errorf("numeric: invalid CG parameters tol=%v maxIter=%d", tol, maxIter)
	}
	n := a.N()
	s := &CGSolver{
		a: a, tol: tol, maxIter: maxIter,
		invDiag: make([]float64, n),
		x:       make([]float64, n),
		r:       make([]float64, n),
		z:       make([]float64, n),
		p:       make([]float64, n),
		ap:      make([]float64, n),
	}
	a.Diagonal(s.invDiag)
	for i, d := range s.invDiag {
		if d <= 0 {
			return nil, fmt.Errorf("numeric: CG requires positive diagonal, row %d has %v", i, d)
		}
		s.invDiag[i] = 1 / d
	}
	return s, nil
}

// Solve solves A·x = b into dst (which may alias b), warm-starting from
// the previous solution. It returns dst and whether the tolerance was met.
func (s *CGSolver) Solve(dst, b []float64) ([]float64, bool) {
	n := s.a.N()
	if len(dst) != n || len(b) != n {
		panic("numeric: CGSolver.Solve dimension mismatch")
	}
	normB := norm2(b)
	if normB == 0 {
		for i := range s.x {
			s.x[i] = 0
		}
		copy(dst, s.x)
		s.LastIterations = 0
		return dst, true
	}
	// r = b − A·x (warm start).
	s.a.MulVec(s.r, s.x)
	for i := range s.r {
		s.r[i] = b[i] - s.r[i]
	}
	for i := range s.z {
		s.z[i] = s.invDiag[i] * s.r[i]
	}
	copy(s.p, s.z)
	rz := dot(s.r, s.z)
	converged := false
	it := 0
	for ; it < s.maxIter; it++ {
		if norm2(s.r) <= s.tol*normB {
			converged = true
			break
		}
		s.a.MulVec(s.ap, s.p)
		pap := dot(s.p, s.ap)
		if pap <= 0 || math.IsNaN(pap) {
			break // not SPD or breakdown
		}
		alpha := rz / pap
		for i := range s.x {
			s.x[i] += alpha * s.p[i]
			s.r[i] -= alpha * s.ap[i]
		}
		for i := range s.z {
			s.z[i] = s.invDiag[i] * s.r[i]
		}
		rzNew := dot(s.r, s.z)
		beta := rzNew / rz
		rz = rzNew
		for i := range s.p {
			s.p[i] = s.z[i] + beta*s.p[i]
		}
	}
	if !converged && norm2(s.r) <= s.tol*normB {
		converged = true
	}
	s.LastIterations = it
	copy(dst, s.x)
	return dst, converged
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// Entry is one accumulated (I, J, V) coordinate of a Triplets.
type Entry struct {
	I, J int
	V    float64
}

// Entries returns the accumulated entries sorted by (i, j) — an
// order-deterministic snapshot for clients that need to copy a triplet
// structure (e.g. to add a diagonal shift). Unlike exposing the internal
// map, the returned slice cannot mutate solver state and iterates in the
// same order on every run.
func (t *Triplets) Entries() []Entry {
	es := make([]Entry, 0, len(t.vals))
	for key, v := range t.vals {
		es = append(es, Entry{I: key[0], J: key[1], V: v})
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].I != es[b].I {
			return es[a].I < es[b].I
		}
		return es[a].J < es[b].J
	})
	return es
}

// Reset discards the warm-start state: the next Solve starts from the
// zero vector. Use it when the right-hand side jumps discontinuously
// (the previous solution is a bad initial guess) or when run-to-run
// reproducibility must not depend on the solver's call history.
func (s *CGSolver) Reset() {
	for i := range s.x {
		s.x[i] = 0
	}
	s.LastIterations = 0
}
