package numeric

import "math"

// Dot returns the dot product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// NormInf returns the max-norm of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AXPY computes dst = a·x + y element-wise. dst may alias x or y.
func AXPY(dst []float64, a float64, x, y []float64) []float64 {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("numeric: AXPY length mismatch")
	}
	for i := range dst {
		dst[i] = a*x[i] + y[i]
	}
	return dst
}

// Fill sets every element of v to c and returns v.
func Fill(v []float64, c float64) []float64 {
	for i := range v {
		v[i] = c
	}
	return v
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// MinMax returns the minimum and maximum of v. It panics on empty input.
func MinMax(v []float64) (min, max float64) {
	if len(v) == 0 {
		panic("numeric: MinMax of empty slice")
	}
	min, max = v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}
