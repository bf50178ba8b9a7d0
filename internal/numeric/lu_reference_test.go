package numeric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refLU is the dense LU solve as it was before the factors moved onto
// their row envelopes, kept verbatim as a test reference: the packed
// dense factors and the full-row substitution loops.
type refLU struct {
	n   int
	lu  *Matrix
	piv []int
}

func refFactorLU(a *Matrix) (*refLU, error) {
	n := a.Rows
	f := &refLU{n: n, lu: a.Clone(), piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		p := k
		maxv := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				maxv, p = v, i
			}
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
	return f, nil
}

func (f *refLU) solve(b []float64) []float64 {
	n := f.n
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := y[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	return y
}

func (f *refLU) det(sign int) float64 {
	d := float64(sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// sameBits reports whether a and b are the same float64 bit pattern,
// treating +0 and −0 as equal: the envelope solve may differ from the
// dense one only in the sign of an exactly-zero component.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// checkAgainstReference factors a both ways and requires bitwise-equal
// solutions for b.
func checkAgainstReference(t *testing.T, a *Matrix, b []float64) {
	t.Helper()
	f, err := FactorLU(a)
	ref, rerr := refFactorLU(a)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("FactorLU err %v, reference err %v", err, rerr)
	}
	if err != nil {
		return
	}
	got := f.Solve(make([]float64, len(b)), b)
	want := ref.solve(b)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("x[%d] = %v (%#x), dense reference %v (%#x)", i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if d, rd := f.Det(), ref.det(f.sign); math.Float64bits(d) != math.Float64bits(rd) {
		t.Fatalf("Det = %v, dense reference %v", d, rd)
	}
}

func randomRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64() * 10
	}
	return b
}

// randomBanded builds a diagonally dominant matrix whose off-diagonal
// entries lie within bandwidth bw of the diagonal, with random holes, so
// row envelopes are shorter than the row.
func randomBanded(rng *rand.Rand, n, bw int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := max(0, i-bw); j <= min(n-1, i+bw); j++ {
			if j == i || rng.Intn(3) == 0 {
				continue
			}
			v := rng.NormFloat64()
			a.Set(i, j, v)
			sum += math.Abs(v)
		}
		a.Set(i, i, sum+1+rng.Float64())
	}
	return a
}

func TestLUSolveMatchesDenseReferenceDiagDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		checkAgainstReference(t, randomDiagDominant(rng, n), randomRHS(rng, n))
		checkAgainstReference(t, randomBanded(rng, n, 1+rng.Intn(6)), randomRHS(rng, n))
	}
}

// Weak diagonals make partial pivoting swap rows, which scatters the
// envelopes of the permuted rows.
func TestLUSolveMatchesDenseReferencePivoting(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		a := randomBanded(rng, n, 1+rng.Intn(5))
		for i := 0; i < n; i++ {
			a.Set(i, i, 1e-3*rng.NormFloat64())
		}
		checkAgainstReference(t, a, randomRHS(rng, n))
	}
	// A permutation matrix pivots on every step.
	n := 9
	p := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		p.Set(i, (i*4+3)%n, 1+float64(i))
	}
	checkAgainstReference(t, p, randomRHS(rng, n))
}

// The block thermal network's shape: three stacked 2-D Laplacians.
func TestLUSolveMatchesDenseReferenceLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const side = 5
	cores := side * side
	n := 3 * cores
	a := NewMatrix(n, n)
	couple := func(i, j int, g float64) {
		a.Set(i, i, a.At(i, i)+g)
		a.Set(j, j, a.At(j, j)+g)
		a.Set(i, j, a.At(i, j)-g)
		a.Set(j, i, a.At(j, i)-g)
	}
	for layer := 0; layer < 3; layer++ {
		for c := 0; c < cores; c++ {
			node := layer*cores + c
			if layer < 2 {
				couple(node, node+cores, 1+rng.Float64())
			}
			if c%side < side-1 {
				couple(node, node+1, rng.Float64())
			}
			if c+side < cores {
				couple(node, node+side, rng.Float64())
			}
		}
	}
	for i := 2 * cores; i < n; i++ {
		a.Set(i, i, a.At(i, i)+0.1) // sink to ambient
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+rng.Float64()) // capacitance over Δt
	}
	for trial := 0; trial < 10; trial++ {
		checkAgainstReference(t, a, randomRHS(rng, n))
	}
}

// FuzzLUSolve builds small, sparse matrices and right-hand sides from the
// fuzz input: the envelope solve must equal the dense reference bit for
// bit (up to the sign of a zero component), and SolveChecked must reject
// a right-hand side with a non-finite entry.
func FuzzLUSolve(f *testing.F) {
	f.Add([]byte{3, 9, 1, 0, 2, 7, 0, 0, 5, 8, 1, 2, 3})
	f.Add([]byte{5, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 9})
	f.Add([]byte{1, 200, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			if v%3 == 0 {
				return 0 // sparse: a third of the entries are zero
			}
			return float64(int(v)-128) / 16
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, next())
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = next()
		}
		checkAgainstReference(t, a, b)
		lu, err := FactorLU(a)
		if err != nil {
			return
		}
		k := 0
		if len(data) > 0 {
			k = int(data[0]) % n
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			poisoned := append([]float64(nil), b...)
			poisoned[k] = bad
			if err := lu.SolveChecked(make([]float64, n), poisoned); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("SolveChecked with b[%d]=%v: err %v, want ErrNonFinite", k, bad, err)
			}
		}
	})
}
