package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// refForward and refInverse are basis.forward and basis.inverse as they
// were before their outputs were blocked into register accumulators,
// verbatim, as the test references. The production transforms must match
// them bit for bit.
func refForward(b *basis, dst, x, tmp []float64) {
	R, C := b.rows.m, b.cols.m
	pr, pc := b.rows.phi, b.cols.phi
	for r := 0; r < R; r++ { // tmp = x·Φ_C
		tr := tmp[r*C : (r+1)*C]
		clear(tr)
		for c, v := range x[r*C : (r+1)*C] {
			for q, f := range pc[c*C : (c+1)*C] {
				tr[q] += v * f
			}
		}
	}
	for p := 0; p < R; p++ { // dst = Φ_Rᵀ·tmp
		dp := dst[p*C : (p+1)*C]
		clear(dp)
		for r := 0; r < R; r++ {
			f := pr[r*R+p]
			for q, v := range tmp[r*C : (r+1)*C] {
				dp[q] += f * v
			}
		}
	}
}

func refInverse(b *basis, dst, xh, tmp []float64, offset float64) {
	R, C := b.rows.m, b.cols.m
	pr, pc := b.rows.phi, b.cols.phi
	for r := 0; r < R; r++ { // tmp = Φ_R·x̂
		tr := tmp[r*C : (r+1)*C]
		clear(tr)
		for p, f := range pr[r*R : (r+1)*R] {
			for q, v := range xh[p*C : (p+1)*C] {
				tr[q] += f * v
			}
		}
	}
	for r := 0; r < R; r++ { // dst = tmp·Φ_Cᵀ + offset
		tr := tmp[r*C : (r+1)*C]
		for c := 0; c < C; c++ {
			sum := 0.0
			for q, f := range pc[c*C : (c+1)*C] {
				sum += tr[q] * f
			}
			dst[r*C+c] = sum + offset
		}
	}
}

// checkTransforms runs forward and inverse and their references on x and
// reports the first output whose bits differ.
func checkTransforms(t *testing.T, rows, cols int, x []float64, offset float64) {
	t.Helper()
	b := newBasis(rows, cols)
	n := rows * cols
	got, want := make([]float64, n), make([]float64, n)
	tmp := make([]float64, n)
	b.forward(got, x, tmp)
	refForward(&b, want, x, tmp)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%d×%d forward: x̂[%d] = %v, reference %v", rows, cols, i, got[i], want[i])
	}
	b.inverse(got, x, tmp, offset)
	refInverse(&b, want, x, tmp, offset)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%d×%d inverse: x[%d] = %v, reference %v", rows, cols, i, got[i], want[i])
	}
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestModalTransformsMatchReference compares the transforms with their
// references bitwise on shapes that exercise the four-output blocks, the
// leftover outputs, single rows and a single core. The inputs span a few
// decades, so a reordered sum rounds differently.
func TestModalTransformsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {4, 6}, {5, 9}, {8, 8}, {16, 16}} {
		rows, cols := shape[0], shape[1]
		x := make([]float64, rows*cols)
		for trial := 0; trial < 20; trial++ {
			for i := range x {
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
			checkTransforms(t, rows, cols, x, 318.15)
		}
	}
}

// FuzzModalTransforms compares the transforms with their references
// bitwise on random shapes up to 16×16 and random values.
func FuzzModalTransforms(f *testing.F) {
	f.Add(uint8(8), uint8(8), int64(1), 318.15)
	f.Add(uint8(1), uint8(7), int64(2), 0.0)
	f.Add(uint8(5), uint8(9), int64(3), -1.5)
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, offset float64) {
		r, c := 1+int(rows)%16, 1+int(cols)%16
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, r*c)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		checkTransforms(t, r, c, x, offset)
	})
}
