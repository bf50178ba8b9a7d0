package numeric

import (
	"math"
	"math/rand"
	"testing"
)

// refMulVec is Matrix.MulVec as it was before its rows were blocked four
// at a time, verbatim, as the test reference. The production kernel must
// match it bit for bit.
func refMulVec(m *Matrix, dst, x []float64) []float64 {
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

// TestMulVecMatchesReference compares MulVec with refMulVec bitwise on
// shapes that exercise the four-row blocks, the leftover rows and a
// single element. The entries span many magnitudes and both signs, and
// include zeros, so a reordered sum rounds differently.
func TestMulVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {4, 4}, {7, 7}, {64, 64}, {65, 64}} {
		rows, cols := shape[0], shape[1]
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = spreadValue(rng)
		}
		x := make([]float64, cols)
		for trial := 0; trial < 20; trial++ {
			for j := range x {
				x[j] = spreadValue(rng)
			}
			want := refMulVec(m, make([]float64, rows), x)
			got := m.MulVec(make([]float64, rows), x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d×%d trial %d: dst[%d] = %v (%#x), reference %v (%#x)",
						rows, cols, trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// refMulRows is the product MulRows computes, one output at a time with
// one accumulator: out[i*si + j*sj] = Σ_k a_i[k]·b_j[k], ascending k.
func refMulRows(out []float64, si, sj int, a, b []float64, k int) {
	for i := 0; i < len(a)/k; i++ {
		for j := 0; j < len(b)/k; j++ {
			s := 0.0
			for q := 0; q < k; q++ {
				s += a[i*k+q] * b[j*k+q]
			}
			out[i*si+j*sj] = s
		}
	}
}

// TestMulRowsMatchesReference compares the blocked product with
// refMulRows bitwise on shapes that exercise the two-by-four blocks, a
// leftover row of a, leftover rows of b and single elements, with the
// outputs laid out row-major, column-major and as the DCT's transposed
// store.
func TestMulRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, shape := range [][3]int{{1, 1, 1}, {1, 7, 3}, {2, 4, 5}, {3, 5, 2}, {5, 9, 8}, {8, 8, 8}, {16, 16, 16}, {7, 13, 16}} {
		ra, rb, k := shape[0], shape[1], shape[2]
		a, b := make([]float64, ra*k), make([]float64, rb*k)
		for _, layout := range [][2]int{{rb, 1}, {1, ra}} {
			si, sj := layout[0], layout[1]
			for trial := 0; trial < 20; trial++ {
				for i := range a {
					a[i] = spreadValue(rng)
				}
				for i := range b {
					b[i] = spreadValue(rng)
				}
				want, got := make([]float64, ra*rb), make([]float64, ra*rb)
				refMulRows(want, si, sj, a, b, k)
				MulRows(got, si, sj, a, b, k)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%d×%d·(%d×%d)ᵀ strides (%d, %d) trial %d: out[%d] = %v, reference %v",
							ra, k, rb, k, si, sj, trial, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// spreadValue draws a value whose magnitude varies over a few decades, so
// partial sums lose low bits and any change of summation order shows.
func spreadValue(rng *rand.Rand) float64 {
	if rng.Intn(16) == 0 {
		return 0
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}
