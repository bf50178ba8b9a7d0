package numeric

import (
	"math"
	"math/rand"
	"testing"
)

// refMulVec is Matrix.MulVec as it was before its rows were blocked four
// at a time, verbatim, as the test reference. The matrix–vector product
// MulMat forms must match it bit for bit.
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

// oldMulVec, oldMulRows, oldMulRowPair and oldMulRow are Matrix.MulVec,
// MulRows, mulRowPair and mulRow as they were before MulMat replaced
// them, verbatim but renamed, as the test oracle: MulMat must form
// exactly the sums they formed.
func oldMulVec(m *Matrix, dst, x []float64) []float64 {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("numeric: MulVec dimension mismatch")
	}
	oldMulRows(dst, 0, 1, x, m.Data, m.Cols)
	return dst
}

func oldMulRows(out []float64, si, sj int, a, b []float64, k int) {
	ra := len(a) / k
	i := 0
	for ; i+2 <= ra; i += 2 {
		oldMulRowPair(out[i*si:], si, sj, a[i*k:][:k], a[(i+1)*k:][:k], b)
	}
	if i < ra {
		oldMulRow(out[i*si:], sj, a[i*k:][:k], b)
	}
}

func oldMulRowPair(out []float64, si, sj int, a0, a1, b []float64) {
	K := len(a0)
	a1 = a1[:K]
	rows := len(b) / K
	j := 0
	for ; j+4 <= rows; j += 4 {
		// Reslicing to K lets the compiler drop the bounds checks.
		b0 := b[j*K:][:K]
		b1 := b[(j+1)*K:][:K]
		b2 := b[(j+2)*K:][:K]
		b3 := b[(j+3)*K:][:K]
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		for k, x0 := range a0 {
			x1 := a1[k]
			y0, y1, y2, y3 := b0[k], b1[k], b2[k], b3[k]
			s00 += float64(x0 * y0)
			s01 += float64(x0 * y1)
			s02 += float64(x0 * y2)
			s03 += float64(x0 * y3)
			s10 += float64(x1 * y0)
			s11 += float64(x1 * y1)
			s12 += float64(x1 * y2)
			s13 += float64(x1 * y3)
		}
		o := j * sj
		out[o], out[o+sj], out[o+2*sj], out[o+3*sj] = s00, s01, s02, s03
		o += si
		out[o], out[o+sj], out[o+2*sj], out[o+3*sj] = s10, s11, s12, s13
	}
	for ; j < rows; j++ {
		bj := b[j*K:][:K]
		var s0, s1 float64
		for k, x0 := range a0 {
			y := bj[k]
			s0 += float64(x0 * y)
			s1 += float64(a1[k] * y)
		}
		out[j*sj], out[si+j*sj] = s0, s1
	}
}

func oldMulRow(out []float64, stride int, a, b []float64) {
	K := len(a)
	rows := len(b) / K
	j := 0
	for ; j+4 <= rows; j += 4 {
		// Reslicing to K lets the compiler drop the bounds checks.
		b0 := b[j*K:][:K]
		b1 := b[(j+1)*K:][:K]
		b2 := b[(j+2)*K:][:K]
		b3 := b[(j+3)*K:][:K]
		var s0, s1, s2, s3 float64
		for k, v := range a {
			s0 += float64(v * b0[k])
			s1 += float64(v * b1[k])
			s2 += float64(v * b2[k])
			s3 += float64(v * b3[k])
		}
		out[j*stride], out[(j+1)*stride], out[(j+2)*stride], out[(j+3)*stride] = s0, s1, s2, s3
	}
	for ; j < rows; j++ {
		bj := b[j*K:][:K]
		s := 0.0
		for k, v := range a {
			s += float64(v * bj[k])
		}
		out[j*stride] = s
	}
}

// transposed returns the cols×rows transpose of the row-major rows×cols
// matrix v.
func transposed(v []float64, rows, cols int) []float64 {
	t := make([]float64, len(v))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			t[j*rows+i] = v[i*cols+j]
		}
	}
	return t
}

// TestMulVecMatchesReference compares the matrix–vector product, formed
// by MulMat in both of the ways callers form it (A·x with x a one-column
// matrix; xᵀ·Aᵀ, as Predict multiplies by the stored transposed
// response), with refMulVec and with MulVec's verbatim copy, bitwise, on
// shapes that exercise the blocks, the leftover rows and a single
// element. The entries span many magnitudes and both signs, and include
// zeros, so a reordered sum rounds differently.
func TestMulVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {4, 4}, {7, 7}, {64, 64}, {65, 64}} {
		rows, cols := shape[0], shape[1]
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = spreadValue(rng)
		}
		mT := transposed(m.Data, rows, cols)
		x := make([]float64, cols)
		for trial := 0; trial < 20; trial++ {
			for j := range x {
				x[j] = spreadValue(rng)
			}
			want := refMulVec(m, make([]float64, rows), x)
			old := oldMulVec(m, make([]float64, rows), x)
			col, row := make([]float64, rows), make([]float64, rows)
			MulMat(col, m.Data, x, cols, 1)
			MulMat(row, x, mT, cols, rows)
			for _, got := range []struct {
				name string
				dst  []float64
			}{{"MulVec's copy", old}, {"A·x", col}, {"xᵀ·Aᵀ", row}} {
				for i, w := range want {
					if g := got.dst[i]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%d×%d trial %d: %s dst[%d] = %v (%#x), reference %v (%#x)",
							rows, cols, trial, got.name, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestMulMatMatchesMulRows requires MulMat to reproduce the products
// MulRows formed, bitwise: A·Bᵀ for rows of A and of B, written with
// MulRows' strides row-major and column-major (the DCT's transposed
// store), is MulMat of A with the transpose of B. The shapes exercise
// the blocks of both kernels, leftover rows and columns and single
// elements.
func TestMulMatMatchesMulRows(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, shape := range [][3]int{{1, 1, 1}, {1, 7, 3}, {2, 4, 5}, {3, 5, 2}, {5, 9, 8}, {8, 8, 8}, {16, 16, 16}, {7, 13, 16}, {1, 64, 64}} {
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
				oldMulRows(want, si, sj, a, b, k)
				MulMat(got, a, transposed(b, rb, k), k, rb)
				for i := 0; i < ra; i++ {
					for j := 0; j < rb; j++ {
						w, g := want[i*si+j*sj], got[i*rb+j]
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%d×%d·(%d×%d)ᵀ strides (%d, %d) trial %d: (%d, %d) = %v, MulRows %v",
								ra, k, rb, k, si, sj, trial, i, j, g, w)
						}
					}
				}
			}
		}
	}
}

// spreadValue draws a value across eight decades and both signs, with
// +0, −0 and subnormals among them, so partial sums lose low bits and any
// change of summation order or rounding shows.
func spreadValue(rng *rand.Rand) float64 {
	switch rng.Intn(32) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		v := math.Float64frombits(uint64(rng.Int63n(1<<52-1)) + 1)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
}
