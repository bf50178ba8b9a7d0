package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have the
// same length. The data is copied.
func NewMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("numeric: empty matrix literal")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("numeric: ragged matrix literal")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("numeric: Mul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MaxAbsDiff returns the maximum absolute element-wise difference between a
// and b, which must have identical shape.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("numeric: MaxAbsDiff shape mismatch")
	}
	// Seed from the first element, not a 0.0 sentinel: the zero seed is
	// only correct because the diffs are absolute values, and the pattern
	// invites copy-paste bugs into signed reductions (GridModel.reduceTiles
	// had one, DESIGN.md §15). Seeding from the data is correct either way.
	max := math.Abs(a.Data[0] - b.Data[0])
	for i := 1; i < len(a.Data); i++ {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

func TestNewMatrixFromAndAt(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %d×%d, want 2×3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Errorf("Set/At roundtrip failed")
	}
	m.Add(0, 1, 1)
	if m.At(0, 1) != 10 {
		t.Errorf("Add failed: got %v", m.At(0, 1))
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-sized matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestNewMatrixFromPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged literal")
		}
	}()
	NewMatrixFrom([][]float64{{1, 2}, {3}})
}

// mulVec returns m·x, formed by MulMat with x as a one-column matrix.
func mulVec(m *Matrix, x []float64) []float64 {
	dst := make([]float64, m.Rows)
	MulMat(dst, m.Data, x, m.Cols, 1)
	return dst
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(4)
	x := []float64{1, -2, 3, -4}
	dst := mulVec(id, x)
	for i := range x {
		if dst[i] != x[i] {
			t.Fatalf("I·x[%d] = %v, want %v", i, dst[i], x[i])
		}
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose shape = %d×%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{1, 2.5}, {3, 4}})
	if d := MaxAbsDiff(a, b); !almostEqual(d, 0.5, 1e-15) {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", d)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 2 + rng.Intn(6)
		k := 2 + rng.Intn(6)
		a, b := NewMatrix(n, m), NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		lhs := Mul(a, b).Transpose()
		rhs := Mul(b.Transpose(), a.Transpose())
		return MaxAbsDiff(lhs, rhs) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the matrix–vector product matches Mul with a one-column
// matrix.
func TestMulVecMatchesMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		col := NewMatrix(n, 1)
		copy(col.Data, x)
		want := Mul(a, col)
		got := mulVec(a, x)
		for i := 0; i < n; i++ {
			if !almostEqual(got[i], want.At(i, 0), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
