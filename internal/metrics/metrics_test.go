package metrics

import (
	"math"
	"testing"

	"github.com/kit-ces/hayat/internal/dtm"
	"github.com/kit-ces/hayat/internal/sim"
)

// fakeResult builds a synthetic sim.Result with a linear frequency decline
// from f0avg to f1avg over `years`.
func fakeResult(policy string, dark float64, years float64, f0, f10 []float64, dtmEvents int, avgTemp float64) *sim.Result {
	cfg := sim.DefaultConfig()
	cfg.DarkFraction = dark
	cfg.Years = years
	r := &sim.Result{
		Policy:      policy,
		Config:      cfg,
		InitialFMax: f0,
		FinalFMax:   f10,
		TotalDTM:    dtm.Stats{Migrations: dtmEvents},
	}
	epochs := 4
	for e := 0; e < epochs; e++ {
		frac := float64(e+1) / float64(epochs)
		avg := 0.0
		max := 0.0
		for i := range f0 {
			f := f0[i] + frac*(f10[i]-f0[i])
			avg += f
			if f > max {
				max = f
			}
		}
		avg /= float64(len(f0))
		r.Records = append(r.Records, sim.EpochRecord{
			Epoch:        e,
			YearsElapsed: frac * years,
			AvgFMax:      avg,
			MaxFMax:      max,
			AvgTemp:      avgTemp,
		})
	}
	return r
}

func TestSummarizeBasics(t *testing.T) {
	f0 := []float64{3e9, 2e9}
	f10 := []float64{2.5e9, 1.8e9}
	r := fakeResult("Hayat", 0.5, 10, f0, f10, 7, 340)
	s, err := Summarize([]*sim.Result{r, r}, 318, 11)
	if err != nil {
		t.Fatal(err)
	}
	if s.Chips != 2 || s.Policy != "Hayat" || s.DarkFraction != 0.5 {
		t.Fatalf("summary meta wrong: %+v", s)
	}
	if s.TotalDTMEvents != 14 || s.MeanDTMEvents != 7 {
		t.Fatalf("DTM stats: %d / %v", s.TotalDTMEvents, s.MeanDTMEvents)
	}
	if math.Abs(s.MeanTempOverAmbient-22) > 1e-9 {
		t.Fatalf("temp over ambient = %v", s.MeanTempOverAmbient)
	}
	if math.Abs(s.ChipFMaxAgingRate-0.5e9) > 1e-3 {
		t.Fatalf("chip fmax aging = %v", s.ChipFMaxAgingRate)
	}
	if math.Abs(s.AvgFMaxAgingRate-0.35e9) > 1e-3 {
		t.Fatalf("avg fmax aging = %v", s.AvgFMaxAgingRate)
	}
	// Series endpoints.
	if math.Abs(s.AvgFMaxSeries[0]-2.5e9) > 1e-3 {
		t.Fatalf("series[0] = %v", s.AvgFMaxSeries[0])
	}
	if math.Abs(s.AvgFMaxSeries[len(s.AvgFMaxSeries)-1]-2.15e9) > 1e-3 {
		t.Fatalf("series[last] = %v", s.AvgFMaxSeries[len(s.AvgFMaxSeries)-1])
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize(nil, 318, 5); err == nil {
		t.Error("empty results accepted")
	}
	r := fakeResult("Hayat", 0.5, 10, []float64{3e9}, []float64{2e9}, 0, 330)
	if _, err := Summarize([]*sim.Result{r}, 318, 1); err == nil {
		t.Error("seriesPoints=1 accepted")
	}
	v := fakeResult("VAA", 0.5, 10, []float64{3e9}, []float64{2e9}, 0, 330)
	if _, err := Summarize([]*sim.Result{r, v}, 318, 5); err == nil {
		t.Error("mixed policies accepted")
	}
}

func TestCompareRatios(t *testing.T) {
	f0 := []float64{3e9, 2e9}
	h := fakeResult("Hayat", 0.5, 10, f0, []float64{2.8e9, 1.9e9}, 3, 335)
	v := fakeResult("VAA", 0.5, 10, f0, []float64{2.5e9, 1.8e9}, 10, 340)
	hs, _ := Summarize([]*sim.Result{h}, 318, 5)
	vs, _ := Summarize([]*sim.Result{v}, 318, 5)
	c, err := Compare(hs, vs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.DTMEventsRatio-0.3) > 1e-9 {
		t.Fatalf("DTM ratio = %v", c.DTMEventsRatio)
	}
	if math.Abs(c.TempOverAmbientRatio-17.0/22.0) > 1e-9 {
		t.Fatalf("temp ratio = %v", c.TempOverAmbientRatio)
	}
	if math.Abs(c.ChipFMaxAgingRatio-0.2e9/0.5e9) > 1e-9 {
		t.Fatalf("chip fmax ratio = %v", c.ChipFMaxAgingRatio)
	}
	if c.AvgFMaxAgingRatio >= 1 {
		t.Fatalf("avg fmax ratio = %v, want < 1", c.AvgFMaxAgingRatio)
	}
}

func TestCompareMismatches(t *testing.T) {
	h := fakeResult("Hayat", 0.5, 10, []float64{3e9}, []float64{2e9}, 0, 330)
	v25 := fakeResult("VAA", 0.25, 10, []float64{3e9}, []float64{2e9}, 0, 330)
	hs, _ := Summarize([]*sim.Result{h}, 318, 5)
	vs, _ := Summarize([]*sim.Result{v25}, 318, 5)
	if _, err := Compare(hs, vs); err == nil {
		t.Error("mismatched dark fractions accepted")
	}
}

func TestRatioEdgeCases(t *testing.T) {
	if r := ratio(0, 0); r != 0 {
		t.Errorf("0/0 = %v", r)
	}
	if r := ratio(5, 0); !math.IsInf(r, 1) {
		t.Errorf("5/0 = %v", r)
	}
	if r := ratio(1, 4); r != 0.25 {
		t.Errorf("1/4 = %v", r)
	}
}

func TestSeriesValueInterpolation(t *testing.T) {
	s := Summary{Years: []float64{0, 5, 10}, AvgFMaxSeries: []float64{3e9, 2.6e9, 2.4e9}}
	if v := s.SeriesValue(-1); v != 3e9 {
		t.Errorf("clamp low = %v", v)
	}
	if v := s.SeriesValue(99); v != 2.4e9 {
		t.Errorf("clamp high = %v", v)
	}
	if v := s.SeriesValue(2.5); math.Abs(v-2.8e9) > 1e-3 {
		t.Errorf("midpoint = %v", v)
	}
}

func TestLifetimeExtension(t *testing.T) {
	// Baseline declines faster: its 3-year frequency is the threshold;
	// the candidate reaches that value later.
	base := Summary{Years: []float64{0, 5, 10}, AvgFMaxSeries: []float64{3.0e9, 2.5e9, 2.0e9}}
	cand := Summary{Years: []float64{0, 5, 10}, AvgFMaxSeries: []float64{3.0e9, 2.75e9, 2.5e9}}
	ext, thr := LifetimeExtension(cand, base, 3)
	if math.Abs(thr-2.7e9) > 1e-3 {
		t.Fatalf("threshold = %v", thr)
	}
	// Candidate hits 2.7 GHz at year 6 → extension 3 years.
	if math.Abs(ext-3) > 1e-9 {
		t.Fatalf("extension = %v", ext)
	}
	// Candidate that never degrades to the threshold: at least
	// horizon − required.
	flat := Summary{Years: []float64{0, 5, 10}, AvgFMaxSeries: []float64{3.0e9, 3.0e9, 3.0e9}}
	ext, _ = LifetimeExtension(flat, base, 3)
	if ext < 7 {
		t.Fatalf("flat extension = %v, want ≥ 7", ext)
	}
	// Symmetric case: candidate == baseline → zero extension.
	ext, _ = LifetimeExtension(base, base, 3)
	if math.Abs(ext) > 1e-9 {
		t.Fatalf("self extension = %v", ext)
	}
}

func TestPerChipDistributions(t *testing.T) {
	f0 := []float64{3e9, 2e9}
	a := fakeResult("Hayat", 0.5, 10, f0, []float64{2.5e9, 1.8e9}, 4, 340)
	b := fakeResult("Hayat", 0.5, 10, f0, []float64{2.7e9, 1.9e9}, 8, 336)
	s, err := Summarize([]*sim.Result{a, b}, 318, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PerChipDTM) != 2 || s.PerChipDTM[0] != 4 || s.PerChipDTM[1] != 8 {
		t.Fatalf("per-chip DTM = %v", s.PerChipDTM)
	}
	// Each per-chip series averages to the population mean beside it.
	mean := func(v []float64) float64 { return (v[0] + v[1]) / 2 }
	if len(s.PerChipTempOverAmb) != 2 || mean(s.PerChipTempOverAmb) != 20 || s.MeanTempOverAmbient != 20 {
		t.Fatalf("per-chip temperature over ambient = %v, mean %v", s.PerChipTempOverAmb, s.MeanTempOverAmbient)
	}
	if len(s.PerChipAvgFMaxAging) != 2 || math.Abs(mean(s.PerChipAvgFMaxAging)-s.AvgFMaxAgingRate) > 1e-6 {
		t.Fatalf("per-chip avg-fmax aging = %v, mean %v", s.PerChipAvgFMaxAging, s.AvgFMaxAgingRate)
	}
}
