package numeric

import (
	"math"
	"math/rand"
	"testing"
)

// refMulMat is MulMat's contract as the naive loop: one output at a time,
// one accumulator, ascending index, each product rounded before its add.
func refMulMat(c, a, b []float64, k, n int) {
	for i := 0; i < len(a)/k; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for q := 0; q < k; q++ {
				s += float64(a[i*k+q] * b[q*n+j])
			}
			c[i*n+j] = s
		}
	}
}

// mulMatKernel is one of MulMat's paths, called without MulMat's checks.
type mulMatKernel struct {
	name string
	run  func(c, a, b []float64, m, k, n int)
}

// mulMatKernels lists the paths this host can run: the Go kernel always,
// the AVX2 kernel where MulMat would choose it.
func mulMatKernels() []mulMatKernel {
	ks := []mulMatKernel{{"go", mulMatGo}}
	if useAVX2 {
		ks = append(ks, mulMatKernel{"avx2", mulMatAVX2})
	}
	return ks
}

// fillMulMat fills v with spreadValue's draws and returns it.
func fillMulMat(rng *rand.Rand, v []float64) []float64 {
	for i := range v {
		v[i] = spreadValue(rng)
	}
	return v
}

// sameFloat reports whether x and y are the same bits, or both NaN.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// guard is the number of sentinel elements checkMulMat places after c.
const guard = 8

// checkMulMat runs the naive loop, MulMat and every kernel on one product
// and fails on the first element that differs from the naive loop's bits
// (or, for a NaN, is not NaN), or on any write past the end of c.
func checkMulMat(t testing.TB, a, b []float64, k, n int) {
	t.Helper()
	m := len(a) / k
	want := make([]float64, m*n)
	refMulMat(want, a, b, k, n)
	buf := make([]float64, m*n+guard)
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	run := func(name string, f func(c []float64)) {
		for i := range buf {
			buf[i] = sentinel
		}
		c := buf[:m*n]
		f(c)
		for i, w := range want {
			if !sameFloat(c[i], w) {
				t.Fatalf("%s %d×%d·%d×%d: c[%d] = %v (%#x), naive loop %v (%#x)",
					name, m, k, k, n, i, c[i], math.Float64bits(c[i]), w, math.Float64bits(w))
			}
		}
		for i, v := range buf[m*n:] {
			if math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("%s %d×%d·%d×%d: wrote %v past the end of c, at c[%d]", name, m, k, k, n, v, m*n+i)
			}
		}
	}
	run("MulMat", func(c []float64) { MulMat(c, a, b, k, n) })
	for _, kern := range mulMatKernels() {
		run(kern.name, func(c []float64) { kern.run(c, a, b, m, k, n) })
	}
}

// TestMulMatMatchesReference requires every path to equal the naive loop
// bit for bit: on every shape of 1–9 rows, 1–70 inner products and 1–70
// columns, which covers every leftover row and column of both kernels'
// blocks, and on the shapes the simulator runs (an 8×8 and a 16×16
// grid's DCT stages, Predict at 64 and at 1024 cores).
func TestMulMatMatchesReference(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this host: only the Go kernel runs")
	}
	rng := rand.New(rand.NewSource(37))
	a := fillMulMat(rng, make([]float64, 9*70))
	b := fillMulMat(rng, make([]float64, 70*70))
	for m := 1; m <= 9; m++ {
		for k := 1; k <= 70; k++ {
			for n := 1; n <= 70; n++ {
				checkMulMat(t, a[:m*k], b[:k*n], k, n)
			}
		}
	}
	for _, s := range [][3]int{{8, 8, 8}, {16, 16, 16}, {1, 64, 64}, {1, 1024, 1024}} {
		m, k, n := s[0], s[1], s[2]
		for trial := 0; trial < 4; trial++ {
			checkMulMat(t, fillMulMat(rng, make([]float64, m*k)), fillMulMat(rng, make([]float64, k*n)), k, n)
		}
	}
}

// TestMulMatNonFinite puts NaN, +Inf and −Inf among the inputs: every
// path must give the naive loop's ±Inf and finite bits, and NaN where it
// gives NaN (Inf·0 and Inf − Inf included).
func TestMulMatNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	for _, s := range [][3]int{{1, 5, 7}, {4, 8, 8}, {5, 9, 13}, {8, 8, 8}, {1, 64, 64}, {3, 33, 37}} {
		m, k, n := s[0], s[1], s[2]
		for trial := 0; trial < 20; trial++ {
			a := fillMulMat(rng, make([]float64, m*k))
			b := fillMulMat(rng, make([]float64, k*n))
			for _, v := range [][]float64{a, b} {
				for i := range v {
					if rng.Intn(12) == 0 {
						v[i] = special[rng.Intn(len(special))]
					}
				}
			}
			checkMulMat(t, a, b, k, n)
		}
	}
}

// TestMulMatPanicsOnShortSlices shows that MulMat checks every length in
// Go before a kernel runs: the assembly kernel checks no bounds, so a
// short c, a or b reaching it would read or write outside the slice.
func TestMulMatPanicsOnShortSlices(t *testing.T) {
	const m, k, n = 4, 8, 8
	a, b, c := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	for _, tc := range []struct {
		name    string
		c, a, b []float64
		k, n    int
	}{
		{"short c", c[:m*n-1], a, b, k, n},
		{"short a", c, a[:m*k-1], b, k, n},
		{"a a row short", c, a[:(m-1)*k], b, k, n},
		{"short b", c, a, b[:k*n-1], k, n},
		{"long b", c, a, make([]float64, k*n+1), k, n},
		{"zero k", c, a, b, 0, n},
		{"negative n", c, a, b, k, -n},
	} {
		for i := range c {
			c[i] = -1
		}
		func() {
			defer func() {
				if r := recover(); r != "numeric: MulMat dimension mismatch" {
					t.Errorf("%s: recovered %v, want MulMat's dimension panic", tc.name, r)
				}
			}()
			MulMat(tc.c, tc.a, tc.b, tc.k, tc.n)
		}()
		for i, v := range c {
			if v != -1 {
				t.Fatalf("%s: c[%d] written before the panic", tc.name, i)
			}
		}
	}
}

// FuzzMulMat runs every path against the naive loop on a random shape of
// up to 16 rows (none included), 96 inner products and 96 columns.
func FuzzMulMat(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), int64(1))
	f.Add(uint8(1), uint8(64), uint8(64), int64(2))
	f.Add(uint8(7), uint8(3), uint8(37), int64(3))
	f.Add(uint8(0), uint8(5), uint8(5), int64(4))
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64) {
		M, K, N := int(m)%17, 1+int(k)%96, 1+int(n)%96
		rng := rand.New(rand.NewSource(seed))
		checkMulMat(t, fillMulMat(rng, make([]float64, M*K)), fillMulMat(rng, make([]float64, K*N)), K, N)
	})
}

// BenchmarkMulMat times each path on one 8×8 DCT stage and on Predict's
// product at 64 cores.
func BenchmarkMulMat(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
	}{{"8x8_8x8", 8, 8, 8}, {"1x64_64x64", 1, 64, 64}} {
		// Normal values only: a subnormal operand may take a slow
		// microcode path that the simulator's inputs never take.
		rng := rand.New(rand.NewSource(39))
		x, y := make([]float64, s.m*s.k), make([]float64, s.k*s.n)
		for _, v := range [][]float64{x, y} {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
		}
		c := make([]float64, s.m*s.n)
		for _, kern := range mulMatKernels() {
			b.Run(s.name+"/"+kern.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kern.run(c, x, y, s.m, s.k, s.n)
				}
			})
		}
	}
}
