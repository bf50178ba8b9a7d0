// Package thermpredict implements the lightweight online chip-thermal-
// profile predictor of [27] ("Variability-aware dark silicon management in
// on-chip many-core systems", DATE 2015), which Hayat uses as its
// predictTemperature primitive (Fig. 6).
//
// The technique has two parts:
//
//  1. Offline learning: the spatial thermal response of the chip is
//     learned once per chip by probing the thermal model with unit power
//     at every core — yielding the die-to-die response matrix R in K/W.
//     For the linear RC network this learned profile set is exact.
//  2. Online prediction: the chip thermal profile for a candidate
//     mapping is the super-position of the per-thread responses,
//     T = T_amb + R·P, followed by a fixed-point correction for
//     temperature-dependent leakage (leakage raises temperature, which
//     raises leakage).
//
// Prediction is a 64×64 matrix–vector product plus two correction sweeps —
// microseconds, which is what makes per-candidate evaluation inside
// Algorithm 1 feasible at run time (the paper reports ≈25 µs for
// predictTemperature).
package thermpredict

import (
	"fmt"

	"github.com/kit-ces/hayat/internal/numeric"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/variation"
)

// Predictor holds the learned spatial thermal profiles for one chip.
type Predictor struct {
	tm   *thermal.Model
	pm   power.Model
	chip *variation.Chip

	// resp is the learned response matrix: resp[i][j] is the steady-state
	// temperature rise of core i per Watt injected at core j. It belongs
	// to the thermal model (DieResponse) and is shared read-only by every
	// predictor on that model.
	resp *numeric.Matrix

	// LeakageIterations is the number of fixed-point sweeps applied for
	// the temperature-dependent leakage correction (default 2).
	LeakageIterations int
}

// Learn performs the offline step: it takes the thermal model's response
// matrix, learned by probing the model with unit power at every core. The
// response depends only on the model, not the chip, so the probing runs
// once per model (thermal.Model.DieResponse).
func Learn(tm *thermal.Model, pm power.Model, chip *variation.Chip) (*Predictor, error) {
	if tm == nil || chip == nil {
		return nil, fmt.Errorf("thermpredict: nil model or chip")
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	n := tm.Floorplan().N()
	if len(chip.FMax0) != n {
		return nil, fmt.Errorf("thermpredict: chip has %d cores, floorplan %d", len(chip.FMax0), n)
	}
	resp, err := tm.DieResponse()
	if err != nil {
		return nil, fmt.Errorf("thermpredict: %w", err)
	}
	return &Predictor{tm: tm, pm: pm, chip: chip, resp: resp, LeakageIterations: 3}, nil
}

// Ambient returns the ambient temperature of the underlying model.
func (p *Predictor) Ambient() float64 { return p.tm.Ambient() }

// Predict computes the chip thermal profile for a per-core dynamic-power
// vector pdyn (Watts; zero for idle/dark cores) and the power-state map
// `on`, including the leakage correction. The result is written into dst
// (allocated when nil) and returned. total is the caller's per-core
// total-power scratch (allocated when nil): one predictor serves every
// engine of a chip, concurrently, so the scratch belongs to the caller.
func (p *Predictor) Predict(dst, total, pdyn []float64, on []bool) []float64 {
	n := p.resp.Rows
	if len(pdyn) != n || len(on) != n {
		panic("thermpredict: Predict length mismatch")
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	if total == nil {
		total = make([]float64, n)
	}
	total = total[:n]
	amb := p.tm.Ambient()
	// Initial guess: ambient-temperature leakage.
	for i := range total {
		total[i] = pdyn[i] + p.pm.CoreLeakage(p.chip.LeakFactor[i], amb, on[i])
	}
	p.resp.MulVec(dst, total)
	for i := range dst {
		dst[i] += amb
	}
	// Fixed-point leakage correction sweeps.
	for it := 0; it < p.LeakageIterations; it++ {
		for i := range total {
			total[i] = pdyn[i] + p.pm.CoreLeakage(p.chip.LeakFactor[i], dst[i], on[i])
		}
		p.resp.MulVec(dst, total)
		for i := range dst {
			dst[i] += amb
		}
	}
	return dst
}

// DeltaPredict returns base + the response to addPower Watts at core j,
// written into dst (which may alias base). It is the cheap incremental
// path Algorithm 1 uses per candidate: only the super-position term is
// updated, not the leakage correction (the error is second-order in the
// candidate's power). addPower must include every power change at core j —
// when the candidate core was dark in the base mapping, that means the
// thread's dynamic power plus the core's own leakage minus the gated
// leakage (use CandidatePower).
func (p *Predictor) DeltaPredict(dst, base []float64, j int, addPower float64) []float64 {
	n := p.resp.Rows
	if len(base) != n {
		panic("thermpredict: DeltaPredict length mismatch")
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		dst[i] = base[i] + p.resp.At(i, j)*addPower
	}
	return dst
}

// CandidatePower estimates the total power change of waking dark core j
// at approximate temperature T and running a thread of dynamic power pdyn
// on it: the dynamic power plus the core's leakage at T, minus the gated
// leakage it dissipated while dark.
func (p *Predictor) CandidatePower(j int, pdyn, T float64) float64 {
	return pdyn + p.pm.CoreLeakage(p.chip.LeakFactor[j], T, true) - p.pm.CoreLeakage(0, T, false)
}
