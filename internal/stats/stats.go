// Package stats provides the small statistical toolkit used to report
// chip-population results with uncertainty: means, standard deviations,
// percentiles and bootstrap confidence intervals. The paper's Figs. 7–10
// aggregate "25 different chips"; the bars this repository reports carry
// bootstrap intervals so shape claims are distinguishable from sampling
// noise.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/kit-ces/hayat/internal/numeric"
)

// errNonFinite wraps numeric.ErrNonFinite (the PR-3 hardening sentinel)
// so errors.Is(err, numeric.ErrNonFinite) works on stats errors too.
func errNonFinite(fn string) error {
	return fmt.Errorf("stats: %s: non-finite input: %w", fn, numeric.ErrNonFinite)
}

// Mean returns the arithmetic mean (0 for empty input).
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

// StdDev returns the sample standard deviation (n−1 denominator; 0 for
// fewer than two values). The sum of squared deviations uses the
// two-pass compensated form Σd² − (Σd)²/n (d = x − mean): the correction
// term removes the first-pass mean's rounding error, which for
// large-mean/small-variance samples otherwise produces a spuriously
// negative variance that the final clamp would silently flatten to 0.
func StdDev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	sum, comp := 0.0, 0.0
	for _, x := range v {
		d := x - m
		sum += d * d
		comp += d
	}
	n := float64(len(v))
	variance := (sum - comp*comp/n) / (n - 1)
	if variance <= 0 {
		// Only exact-rounding residue can land here now (constant or
		// near-constant samples); true std dev is 0 to within precision.
		return 0
	}
	return math.Sqrt(variance)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics. It panics on empty input,
// out-of-range p, or non-finite values: sort.Float64s leaves NaNs in
// unspecified positions, so order statistics over such input are
// garbage, and a quantile of ±Inf data is meaningless. Callers with
// untrusted data should validate first (as BootstrapMeanCI and Describe
// do, returning an error instead).
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0,100]", p))
	}
	if !numeric.AllFinite(v) {
		panic("stats: percentile of non-finite values")
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// BootstrapMeanCI estimates a confidence interval for the mean by the
// percentile bootstrap: `resamples` resamples with replacement,
// deterministic in seed. confidence ∈ (0, 1), e.g. 0.95.
//
//lint:ignore reachability ROADMAP item 5 reports per-chip confidence intervals with it
func BootstrapMeanCI(v []float64, confidence float64, resamples int, seed int64) (Interval, error) {
	if len(v) == 0 {
		return Interval{}, fmt.Errorf("stats: bootstrap of empty sample")
	}
	if confidence <= 0 || confidence >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence %v outside (0,1)", confidence)
	}
	if resamples < 10 {
		return Interval{}, fmt.Errorf("stats: need ≥10 resamples, got %d", resamples)
	}
	if !numeric.AllFinite(v) {
		return Interval{}, errNonFinite("bootstrap")
	}
	rng := rand.New(rand.NewSource(seed))
	means := make([]float64, resamples)
	for r := range means {
		s := 0.0
		for i := 0; i < len(v); i++ {
			s += v[rng.Intn(len(v))]
		}
		means[r] = s / float64(len(v))
	}
	alpha := (1 - confidence) / 2 * 100
	return Interval{
		Lo: Percentile(means, alpha),
		Hi: Percentile(means, 100-alpha),
	}, nil
}

// Describe summarises a sample.
type Description struct {
	N                int
	Mean, StdDev     float64
	Min, Median, Max float64
}

// Describe computes the summary (zero value for empty input). Samples
// containing NaN or ±Inf yield an error wrapping numeric.ErrNonFinite:
// every field of the summary would otherwise be poisoned or silently
// wrong (NaNs additionally sort unpredictably in the median).
//
//lint:ignore reachability ROADMAP item 5 reports per-chip distributions with it
func Describe(v []float64) (Description, error) {
	if len(v) == 0 {
		return Description{}, nil
	}
	if !numeric.AllFinite(v) {
		return Description{}, errNonFinite("describe")
	}
	d := Description{
		N:      len(v),
		Mean:   Mean(v),
		StdDev: StdDev(v),
		Median: Percentile(v, 50),
	}
	d.Min, d.Max = v[0], v[0]
	for _, x := range v {
		if x < d.Min {
			d.Min = x
		}
		if x > d.Max {
			d.Max = x
		}
	}
	return d, nil
}
