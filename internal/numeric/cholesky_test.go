package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds A = Bᵀ·B + n·I, which is symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := Mul(b.Transpose(), b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomSPD(rng, 12)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := Mul(c.L(), c.L().Transpose())
	if d := MaxAbsDiff(a, recon); d > 1e-9 {
		t.Fatalf("‖A − L·Lᵀ‖∞ = %v", d)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if _, err := FactorCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskySolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 15
	a := randomSPD(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := c.Solve(make([]float64, n), b)
	ax := a.MulVec(make([]float64, n), x)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-8 {
			t.Fatalf("(A·x − b)[%d] = %v", i, ax[i]-b[i])
		}
	}
}

// Property: colouring white noise with L yields samples whose quadratic form
// zᵀ·A⁻¹·z is consistent — concretely we verify L·(L⁻¹·b) == b via
// MulVec/Solve inversion on random SPD matrices.
func TestCholeskyMulVecSolveInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randomSPD(rng, n)
		c, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		z := make([]float64, n)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		// x = L·z, then solving A·y = L·Lᵀ·y = x ... instead verify
		// A·(A⁻¹·b) == b.
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		y := c.Solve(make([]float64, n), b)
		ay := a.MulVec(make([]float64, n), y)
		for i := range b {
			if math.Abs(ay[i]-b[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The statistical point of the Cholesky factor: colored noise L·z has
// covariance A. Check the empirical covariance on a fixed seed.
func TestCholeskyColouredNoiseCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4
	a := randomSPD(rng, n)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 200000
	cov := NewMatrix(n, n)
	z := make([]float64, n)
	x := make([]float64, n)
	for s := 0; s < samples; s++ {
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		c.MulVec(x, z)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cov.Add(i, j, x[i]*x[j])
			}
		}
	}
	for i := range cov.Data {
		cov.Data[i] /= samples
	}
	// Empirical covariance converges like 1/√samples; allow a loose bound
	// relative to the matrix scale.
	_, maxA := MinMax(a.Data)
	if d := MaxAbsDiff(a, cov); d > 0.05*maxA {
		t.Fatalf("empirical covariance deviates: ‖A − Ĉ‖∞ = %v (scale %v)", d, maxA)
	}
}
