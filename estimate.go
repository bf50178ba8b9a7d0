package hayat

import (
	"fmt"
	"math"
	"sort"
)

// LifetimeEstimate is the fast analytic stand-in for a full lifetime
// simulation: a single thermpredict steady-state profile for a static
// mapping, pushed through the chip's offline 3D aging table at the target
// age. It captures the dominant effects (variation map, dark-silicon
// budget, leakage–temperature feedback, NBTI duty dependence) but none of
// the epoch dynamics — no DTM, no remapping, no workload phases — which
// is why services serving it label the answer degraded.
type LifetimeEstimate struct {
	Policy       string  `json:"policy"`
	ChipSeed     int64   `json:"chip_seed"`
	DarkFraction float64 `json:"dark_fraction"`
	Years        float64 `json:"years"`
	Duty         float64 `json:"duty"`
	ActiveCores  int     `json:"active_cores"`
	AvgTempK     float64 `json:"avg_temp_k"`
	PeakTempK    float64 `json:"peak_temp_k"`
	AvgFinalFMax float64 `json:"avg_final_fmax_hz"`
	MinFinalFMax float64 `json:"min_final_fmax_hz"`
	AvgHealth    float64 `json:"avg_health"`
	Method       string  `json:"method"`
}

// EstimateLifetime computes the analytic lifetime estimate for this chip
// under a static mapping: the dark-silicon budget's worth of cores is
// filled preferring the fastest cores (both policies map the full thread
// count; the ranking stands in for their placement logic), the resulting
// steady-state thermal profile is predicted once, and each core's aged
// frequency at Config.Years comes from one aging-table lookup. Runs in
// microseconds against the minutes of a full simulation.
func (c *Chip) EstimateLifetime(p Policy) (*LifetimeEstimate, error) {
	cfg := c.sys.cfg
	n := c.sys.fp.N()
	maxOn := int(float64(n) * (1 - cfg.DarkFraction))
	if maxOn < 1 {
		maxOn = 1
	}
	if maxOn > n {
		maxOn = n
	}

	// Duty follows the config's duty mode; without per-app knowledge the
	// "known" mode degrades to the generic 50 % assumption.
	duty := 0.5
	if cfg.DutyMode == "worst" {
		duty = 1.0
	}

	// Activate the fastest cores up to the dark-silicon budget.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return c.chip.FMax0[idx[a]] > c.chip.FMax0[idx[b]] })
	on := make([]bool, n)
	pdyn := make([]float64, n)
	for _, i := range idx[:maxOn] {
		on[i] = true
		pdyn[i] = c.sys.pm.DynamicPower(c.chip.FMax0[i], duty)
	}

	temps := c.pred.Predict(nil, nil, pdyn, on)

	years := cfg.Years
	if max := c.tab.MaxYears(); years > max {
		years = max
	}
	est := &LifetimeEstimate{
		Policy:       p.String(),
		ChipSeed:     c.chip.Seed,
		DarkFraction: cfg.DarkFraction,
		Years:        years,
		Duty:         duty,
		ActiveCores:  maxOn,
		MinFinalFMax: math.Inf(1),
		Method:       "thermpredict-steady-state+aging-table",
	}
	for i := 0; i < n; i++ {
		T := temps[i]
		if math.IsNaN(T) || math.IsInf(T, 0) {
			return nil, fmt.Errorf("hayat: estimate produced non-finite temperature at core %d", i)
		}
		d := 0.0
		if on[i] {
			d = duty
		}
		factor := c.tab.Lookup(T, d, years)
		aged := c.chip.FMax0[i] * factor
		est.AvgHealth += factor
		est.AvgFinalFMax += aged
		if aged < est.MinFinalFMax {
			est.MinFinalFMax = aged
		}
		est.AvgTempK += T
		if T > est.PeakTempK {
			est.PeakTempK = T
		}
	}
	est.AvgHealth /= float64(n)
	est.AvgFinalFMax /= float64(n)
	est.AvgTempK /= float64(n)
	return est, nil
}
