package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSparseSPD builds a sparse diagonally-dominant SPD matrix shaped
// like a thermal network: a grid Laplacian plus positive diagonal.
func randomSparseSPD(rng *rand.Rand, side int) *Triplets {
	n := side * side
	t := NewTriplets(n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := r*side + c
			t.Add(i, i, 0.5+rng.Float64()) // ground conductance
			if c+1 < side {
				g := 0.5 + rng.Float64()
				j := i + 1
				t.Add(i, i, g)
				t.Add(j, j, g)
				t.Add(i, j, -g)
				t.Add(j, i, -g)
			}
			if r+1 < side {
				g := 0.5 + rng.Float64()
				j := i + side
				t.Add(i, i, g)
				t.Add(j, j, g)
				t.Add(i, j, -g)
				t.Add(j, i, -g)
			}
		}
	}
	return t
}

func TestTripletsAccumulateAndBounds(t *testing.T) {
	tr := NewTriplets(3)
	tr.Add(0, 1, 2)
	tr.Add(0, 1, 3)
	if tr.At(0, 1) != 5 {
		t.Fatalf("accumulation failed: %v", tr.At(0, 1))
	}
	if tr.N() != 3 {
		t.Fatalf("N = %d", tr.N())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range triplet")
		}
	}()
	tr.Add(3, 0, 1)
}

func TestCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := randomSparseSPD(rng, 5)
	csr := tr.ToCSR()
	dense := tr.ToDense()
	x := make([]float64, tr.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ys := csr.MulVec(make([]float64, tr.N()), x)
	yd := dense.MulVec(make([]float64, tr.N()), x)
	for i := range ys {
		if math.Abs(ys[i]-yd[i]) > 1e-12 {
			t.Fatalf("CSR·x differs from dense at %d: %v vs %v", i, ys[i], yd[i])
		}
	}
	if csr.NNZ() == 0 || csr.NNZ() > tr.N()*tr.N() {
		t.Fatalf("NNZ = %d", csr.NNZ())
	}
}

func TestCSRDiagonal(t *testing.T) {
	tr := NewTriplets(3)
	tr.Add(0, 0, 4)
	tr.Add(1, 1, 5)
	tr.Add(2, 0, 1) // off-diagonal only in row 2
	d := tr.ToCSR().Diagonal(nil)
	want := []float64{4, 5, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("diag[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestCGSolverMatchesCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := randomSparseSPD(rng, 8)
	n := tr.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	chol, err := FactorCholesky(tr.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	want := chol.Solve(make([]float64, n), b)
	cg, err := NewCGSolver(tr.ToCSR(), 1e-12, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cg.Solve(make([]float64, n), b)
	if !ok {
		t.Fatalf("CG did not converge in %d iterations", cg.LastIterations)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCGWarmStartSpeedsRepeatSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomSparseSPD(rng, 12)
	n := tr.N()
	cg, err := NewCGSolver(tr.ToCSR(), 1e-10, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	if _, ok := cg.Solve(x, b); !ok {
		t.Fatal("cold solve failed")
	}
	cold := cg.LastIterations
	// Repeating the identical solve must terminate immediately: the warm
	// start already satisfies the tolerance.
	if _, ok := cg.Solve(x, b); !ok {
		t.Fatal("repeat solve failed")
	}
	if cg.LastIterations != 0 {
		t.Fatalf("repeat solve took %d iterations, want 0", cg.LastIterations)
	}
	// A mildly perturbed right-hand side must cost fewer iterations than
	// the cold solve.
	for i := range b {
		b[i] *= 1.001
	}
	if _, ok := cg.Solve(x, b); !ok {
		t.Fatal("warm solve failed")
	}
	if cg.LastIterations >= cold {
		t.Fatalf("warm start not effective: %d vs cold %d", cg.LastIterations, cold)
	}
}

func TestCGZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := randomSparseSPD(rng, 4)
	cg, err := NewCGSolver(tr.ToCSR(), 1e-10, 100)
	if err != nil {
		t.Fatal(err)
	}
	x, ok := cg.Solve(make([]float64, tr.N()), make([]float64, tr.N()))
	if !ok {
		t.Fatal("zero RHS should trivially converge")
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestCGValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomSparseSPD(rng, 3)
	if _, err := NewCGSolver(tr.ToCSR(), 0, 100); err == nil {
		t.Error("zero tol accepted")
	}
	if _, err := NewCGSolver(tr.ToCSR(), 1e-9, 0); err == nil {
		t.Error("zero maxIter accepted")
	}
	// Non-positive diagonal rejected.
	bad := NewTriplets(2)
	bad.Add(0, 0, 1)
	bad.Add(1, 1, -1)
	if _, err := NewCGSolver(bad.ToCSR(), 1e-9, 10); err == nil {
		t.Error("negative diagonal accepted")
	}
}

// Property: CG solves random grid Laplacian systems to the requested
// tolerance.
func TestCGResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := 3 + rng.Intn(6)
		tr := randomSparseSPD(rng, side)
		n := tr.N()
		csr := tr.ToCSR()
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		cg, err := NewCGSolver(csr, 1e-10, 20*n)
		if err != nil {
			return false
		}
		x, ok := cg.Solve(make([]float64, n), b)
		if !ok {
			return false
		}
		r := csr.MulVec(make([]float64, n), x)
		for i := range r {
			r[i] -= b[i]
		}
		return Norm2(r) <= 1e-8*Norm2(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// MulVec must refuse an aliased destination instead of silently computing
// garbage (row i's output would overwrite inputs other rows still need).
func TestCSRMulVecAliasPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	csr := randomSparseSPD(rng, 4).ToCSR()
	x := make([]float64, csr.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dst aliasing x")
		}
	}()
	csr.MulVec(x, x)
}

// CGSolver.Solve documents that dst may alias b: the solver reads b only
// into its internal residual and writes dst once, at the end. Pin that
// contract — a refactor that streams results into dst mid-iteration
// would corrupt the right-hand side.
func TestCGSolveDstAliasesB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomSparseSPD(rng, 6)
	n := tr.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	cg, err := NewCGSolver(tr.ToCSR(), 1e-12, 20*n)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := cg.Solve(make([]float64, n), append([]float64(nil), b...))
	if !ok {
		t.Fatal("separate-buffer solve failed")
	}
	want = append([]float64(nil), want...)
	cg.Reset()
	aliased := append([]float64(nil), b...)
	got, ok := cg.Solve(aliased, aliased)
	if !ok {
		t.Fatal("aliased solve failed")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("x[%d] = %v with dst==b, want %v", i, got[i], want[i])
		}
	}
}

// Reset must discard the warm start: after it, a solve behaves exactly
// like a solve on a freshly constructed solver.
func TestCGResetRestoresColdStart(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := randomSparseSPD(rng, 10)
	n := tr.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	cg, err := NewCGSolver(tr.ToCSR(), 1e-10, 20*n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	cg.Solve(x, b)
	cold := cg.LastIterations
	cg.Solve(x, b) // warm: ~0 iterations
	cg.Reset()
	cg.Solve(x, b)
	if cg.LastIterations != cold {
		t.Fatalf("post-Reset solve took %d iterations, cold solve took %d", cg.LastIterations, cold)
	}
}

// Entries must come back sorted by (i, j), carry the accumulated values,
// and be detached from the triplets' internal storage.
func TestTripletsEntriesSortedDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randomSparseSPD(rng, 5)
	es := tr.Entries()
	if len(es) != tr.ToCSR().NNZ() {
		t.Fatalf("Entries len %d != NNZ %d", len(es), tr.ToCSR().NNZ())
	}
	for k, e := range es {
		if k > 0 {
			prev := es[k-1]
			if e.I < prev.I || (e.I == prev.I && e.J <= prev.J) {
				t.Fatalf("entries out of order at %d: (%d,%d) after (%d,%d)", k, e.I, e.J, prev.I, prev.J)
			}
		}
		if e.V != tr.At(e.I, e.J) {
			t.Fatalf("entry (%d,%d) = %v, At says %v", e.I, e.J, e.V, tr.At(e.I, e.J))
		}
	}
	// Mutating the snapshot must not reach the accumulator.
	orig := es[0].V
	es[0].V += 42
	if tr.At(es[0].I, es[0].J) != orig {
		t.Fatal("Entries returned a view into solver state")
	}
}
