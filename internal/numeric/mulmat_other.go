//go:build !amd64

package numeric

// useAVX2 is false off amd64: the Go kernel is MulMat's only path.
const useAVX2 = false

// mulMatAVX2 exists only so that MulMat compiles everywhere; it is never
// called off amd64.
func mulMatAVX2(c, a, b []float64, m, k, n int) {
	panic("numeric: no AVX2 kernel on this architecture")
}
