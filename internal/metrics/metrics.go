// Package metrics aggregates lifetime-simulation results across chip
// populations into the quantities the paper's evaluation section reports:
// normalised DTM events (Fig. 7), average temperature over ambient
// (Fig. 8), the aging rate of the per-chip maximum frequency (Fig. 9), the
// aging rate of per-core average maximum frequencies (Fig. 10), and the
// average-frequency-over-lifetime series with lifetime-extension figures
// (Fig. 11).
package metrics

import (
	"fmt"
	"math"

	"github.com/kit-ces/hayat/internal/sim"
)

// Summary aggregates one policy's results across a chip population at one
// dark-silicon setting.
type Summary struct {
	Policy       string
	DarkFraction float64
	Chips        int

	// TotalDTMEvents across all chips and the per-chip mean (Fig. 7).
	TotalDTMEvents int
	MeanDTMEvents  float64

	// MeanTempOverAmbient is the population mean of the lifetime-average
	// (T_avg − T_ambient) in Kelvin (Fig. 8).
	MeanTempOverAmbient float64

	// ChipFMaxAgingRate is the population mean of
	// (max_i f0_i − max_i f10_i) in Hz — how much the single fastest
	// core's frequency degrades over the lifetime (Fig. 9).
	ChipFMaxAgingRate float64

	// AvgFMaxAgingRate is the population mean of
	// (avg_i f0_i − avg_i f10_i) in Hz (Fig. 10).
	AvgFMaxAgingRate float64

	// Years[i] / AvgFMaxSeries[i] trace the population-average aged
	// average frequency over the lifetime (Fig. 11 right).
	Years         []float64
	AvgFMaxSeries []float64

	// Per-chip distributions behind the means above, for uncertainty
	// reporting (one entry per chip, in population order).
	PerChipDTM           []float64
	PerChipTempOverAmb   []float64
	PerChipChipFMaxAging []float64
	PerChipAvgFMaxAging  []float64
}

// Summarize aggregates results (one per chip, same policy and dark
// fraction) against the given ambient temperature. seriesPoints sets the
// resolution of the Fig. 11 series (≥2).
func Summarize(results []*sim.Result, ambient float64, seriesPoints int) (Summary, error) {
	if len(results) == 0 {
		return Summary{}, fmt.Errorf("metrics: no results")
	}
	if seriesPoints < 2 {
		return Summary{}, fmt.Errorf("metrics: seriesPoints must be ≥2")
	}
	s := Summary{
		Policy:       results[0].Policy,
		DarkFraction: results[0].Config.DarkFraction,
		Chips:        len(results),
	}
	years := results[0].Config.Years
	s.Years = make([]float64, seriesPoints)
	s.AvgFMaxSeries = make([]float64, seriesPoints)
	for _, r := range results {
		if r.Policy != s.Policy {
			return Summary{}, fmt.Errorf("metrics: mixed policies %q and %q", s.Policy, r.Policy)
		}
		s.TotalDTMEvents += r.TotalDTM.Events()
		s.PerChipDTM = append(s.PerChipDTM, float64(r.TotalDTM.Events()))

		// Lifetime-average temperature over ambient.
		tAvg := 0.0
		for _, rec := range r.Records {
			tAvg += rec.AvgTemp
		}
		tAvg /= float64(len(r.Records))
		s.MeanTempOverAmbient += tAvg - ambient
		s.PerChipTempOverAmb = append(s.PerChipTempOverAmb, tAvg-ambient)

		max0, avg0 := maxAvg(r.InitialFMax)
		maxF, avgF := maxAvg(r.FinalFMax)
		s.ChipFMaxAgingRate += max0 - maxF
		s.AvgFMaxAgingRate += avg0 - avgF
		s.PerChipChipFMaxAging = append(s.PerChipChipFMaxAging, max0-maxF)
		s.PerChipAvgFMaxAging = append(s.PerChipAvgFMaxAging, avg0-avgF)

		for i := 0; i < seriesPoints; i++ {
			y := years * float64(i) / float64(seriesPoints-1)
			s.Years[i] = y
			s.AvgFMaxSeries[i] += r.AvgFMaxAt(y)
		}
	}
	n := float64(len(results))
	s.MeanDTMEvents = float64(s.TotalDTMEvents) / n
	s.MeanTempOverAmbient /= n
	s.ChipFMaxAgingRate /= n
	s.AvgFMaxAgingRate /= n
	for i := range s.AvgFMaxSeries {
		s.AvgFMaxSeries[i] /= n
	}
	return s, nil
}

func maxAvg(v []float64) (max, avg float64) {
	for _, x := range v {
		avg += x
		if x > max {
			max = x
		}
	}
	return max, avg / float64(len(v))
}

// Comparison holds the Hayat-vs-VAA ratios the paper's bar charts plot
// (values < 1 favour Hayat).
type Comparison struct {
	DarkFraction float64
	// DTMEventsRatio = Hayat events / VAA events (Fig. 7). When the
	// baseline has zero events the ratio is reported as 0 (Hayat also 0)
	// or +Inf.
	DTMEventsRatio float64
	// TempOverAmbientRatio = Hayat (T_avg − T_amb) / VAA (Fig. 8).
	TempOverAmbientRatio float64
	// ChipFMaxAgingRatio = Hayat Δmax-f / VAA Δmax-f (Fig. 9).
	ChipFMaxAgingRatio float64
	// AvgFMaxAgingRatio = Hayat Δavg-f / VAA Δavg-f (Fig. 10).
	AvgFMaxAgingRatio float64
}

// Compare builds the normalised comparison of a Hayat summary against its
// VAA counterpart (same dark fraction and chip population).
func Compare(hayat, vaa Summary) (Comparison, error) {
	if hayat.DarkFraction != vaa.DarkFraction {
		return Comparison{}, fmt.Errorf("metrics: dark fractions differ (%v vs %v)", hayat.DarkFraction, vaa.DarkFraction)
	}
	if hayat.Chips != vaa.Chips {
		return Comparison{}, fmt.Errorf("metrics: population sizes differ (%d vs %d)", hayat.Chips, vaa.Chips)
	}
	c := Comparison{DarkFraction: hayat.DarkFraction}
	c.DTMEventsRatio = ratio(float64(hayat.TotalDTMEvents), float64(vaa.TotalDTMEvents))
	c.TempOverAmbientRatio = ratio(hayat.MeanTempOverAmbient, vaa.MeanTempOverAmbient)
	c.ChipFMaxAgingRatio = ratio(hayat.ChipFMaxAgingRate, vaa.ChipFMaxAgingRate)
	c.AvgFMaxAgingRatio = ratio(hayat.AvgFMaxAgingRate, vaa.AvgFMaxAgingRate)
	return c, nil
}

// ratio returns a/b with the 0/0 case defined as 0 (equal performance at
// zero cost) and x/0 as +Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return a / b
}

// SeriesValue interpolates a (Years, AvgFMaxSeries) pair at `years`,
// clamping outside the range.
func (s Summary) SeriesValue(years float64) float64 {
	if len(s.Years) == 0 {
		return 0
	}
	if years <= s.Years[0] {
		return s.AvgFMaxSeries[0]
	}
	last := len(s.Years) - 1
	if years >= s.Years[last] {
		return s.AvgFMaxSeries[last]
	}
	for i := 1; i <= last; i++ {
		if s.Years[i] >= years {
			f := (years - s.Years[i-1]) / (s.Years[i] - s.Years[i-1])
			return s.AvgFMaxSeries[i-1] + f*(s.AvgFMaxSeries[i]-s.AvgFMaxSeries[i-1])
		}
	}
	return s.AvgFMaxSeries[last]
}

// LifetimeExtension computes Fig. 11's headline: given a required lifetime
// (years), the baseline's average frequency at that point defines the
// end-of-life threshold; the returned value is how many additional years
// the candidate stays above that threshold. Negative values mean the
// candidate ages faster. Returns the extension and the threshold (Hz).
func LifetimeExtension(candidate, baselineSummary Summary, requiredYears float64) (extension, threshold float64) {
	threshold = baselineSummary.SeriesValue(requiredYears)
	// Find the time at which the candidate's series crosses the
	// threshold (series are non-increasing).
	last := len(candidate.Years) - 1
	if candidate.AvgFMaxSeries[last] >= threshold {
		// Candidate never degrades to the baseline's level inside the
		// simulated horizon: the extension is at least horizon − required.
		return candidate.Years[last] - requiredYears, threshold
	}
	for i := 1; i <= last; i++ {
		if candidate.AvgFMaxSeries[i] <= threshold {
			f0, f1 := candidate.AvgFMaxSeries[i-1], candidate.AvgFMaxSeries[i]
			t0, t1 := candidate.Years[i-1], candidate.Years[i]
			var t float64
			if f0 == f1 {
				t = t0
			} else {
				t = t0 + (f0-threshold)/(f0-f1)*(t1-t0)
			}
			return t - requiredYears, threshold
		}
	}
	return 0, threshold
}
