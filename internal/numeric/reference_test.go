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

// spreadValue draws a value whose magnitude varies over a few decades, so
// partial sums lose low bits and any change of summation order shows.
func spreadValue(rng *rand.Rand) float64 {
	if rng.Intn(16) == 0 {
		return 0
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}
