package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// minSamples returns the fewest samples that leave at least minBeyond of
// them beyond percentile q. The measured phase always collects at least
// this many samples for the workload's tail percentile.
func minSamples(q float64) int {
	n := 1
	for n-rank(n, q) < minBeyond {
		n++
	}
	return n
}

// rank is the 1-based nearest-rank position of percentile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile q of xs, which must be
// sorted and non-empty.
func percentile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// median returns the median of xs (the mean of the middle two for an even
// count), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads computed here match those computed from the same values in
// Python. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // outside [0,4] Python extrapolates, and so does this
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
