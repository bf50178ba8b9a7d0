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
// Prediction costs four 64×64 matrix–vector products, the
// ambient-leakage start plus three correction sweeps, each the 1×64 row
// of total powers against the transposed response (numeric.MulMat, whose
// AVX2 kernel equals its Go kernel bit for bit): microseconds, which is
// what makes per-candidate evaluation inside Algorithm 1 feasible at run
// time (the paper reports ≈25 µs for predictTemperature). A
// candidate's admission costs one 64-entry pass over a row of the
// transposed response, or nothing when a bound from that row's largest
// entry already proves it.
//
// Every product that feeds a sum here is written float64(x*y), which
// rounds it before the add, so no architecture fuses the two into one
// FMA and the predictions are the same bytes everywhere (DESIGN.md §19).
package thermpredict

import (
	"fmt"

	"github.com/kit-ces/hayat/internal/numeric"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/variation"
)

// leakageIterations is the number of fixed-point sweeps Predict applies
// for the temperature-dependent leakage correction after its
// ambient-leakage start.
const leakageIterations = 3

// Predictor holds the learned spatial thermal profiles for one chip.
type Predictor struct {
	tm   *thermal.Model
	leak power.Leakage
	chip *variation.Chip

	// resp is the learned response matrix: resp[i][j] is the steady-state
	// temperature rise of core i per Watt injected at core j; respT is its
	// transpose, so one core's response reads as a row and Predict forms
	// R·total as the row totalᵀ times Rᵀ. Both belong to
	// the thermal model (DieResponse) and are shared read-only by every
	// predictor on that model.
	resp, respT *numeric.Matrix

	// leakAmb[i] is core i's leakage when powered at ambient, the input of
	// Predict's first sweep: a constant of the chip, computed in Learn.
	leakAmb []float64

	// rowMax[j] is Peak(row j of respT): the largest temperature rise
	// per Watt at core j, over every core. Admit's bound reads it.
	rowMax []float64
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
	resp, respT, err := tm.DieResponse()
	if err != nil {
		return nil, fmt.Errorf("thermpredict: %w", err)
	}
	p := newPredictor(tm, pm.Leakage(), chip, resp, respT)
	for i := range p.leakAmb {
		p.leakAmb[i] = p.leak.Core(chip.LeakFactor[i], tm.Ambient(), true)
	}
	return p, nil
}

// newPredictor wires a predictor over the response resp and its
// transpose respT, and computes rowMax; Learn fills leakAmb.
func newPredictor(tm *thermal.Model, leak power.Leakage, chip *variation.Chip, resp, respT *numeric.Matrix) *Predictor {
	p := &Predictor{
		tm: tm, leak: leak, chip: chip,
		resp: resp, respT: respT,
		leakAmb: make([]float64, resp.Rows), rowMax: make([]float64, resp.Rows),
	}
	for j := range p.rowMax {
		p.rowMax[j] = Peak(respT.Row(j))
	}
	return p
}

// Peak returns the largest value of field, seeded from field[0]: a NaN
// elsewhere is passed over, and a NaN at index 0 is returned.
func Peak(field []float64) float64 {
	peak := field[0]
	for _, v := range field {
		if v > peak {
			peak = v
		}
	}
	return peak
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
		if on[i] {
			total[i] = pdyn[i] + p.leakAmb[i]
		} else {
			total[i] = pdyn[i] + p.leak.Core(0, amb, false)
		}
	}
	numeric.MulMat(dst, total, p.respT.Data, n, n) // dst = R·total, as totalᵀ·Rᵀ
	for i := range dst {
		dst[i] += amb
	}
	// Fixed-point leakage correction sweeps.
	for it := 0; it < leakageIterations; it++ {
		for i := range total {
			total[i] = pdyn[i] + float64(p.leak.Core(p.chip.LeakFactor[i], dst[i], on[i]))
		}
		numeric.MulMat(dst, total, p.respT.Data, n, n)
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
	row := p.respT.Row(j)
	for i := 0; i < n; i++ {
		dst[i] = base[i] + float64(row[i]*addPower)
	}
	return dst
}

// Admit is Algorithm 1's admission test (Eq. 4) for a candidate at core
// j: ok reports whether every core of the field DeltaPredict(base, j,
// addPower) would return is at or below tSafe, and tj is core j's
// temperature in that field, bit for bit. maxBase must be Peak(base).
//
// When bounded admits, no core needs to be visited. Otherwise Admit walks
// the field core by core in ascending order, without writing it, and
// returns ok = false at the first core above tSafe.
func (p *Predictor) Admit(base []float64, maxBase float64, j int, addPower, tSafe float64) (tj float64, ok bool) {
	n := p.resp.Rows
	if len(base) != n {
		panic("thermpredict: Admit length mismatch")
	}
	row := p.respT.Row(j)[:n]
	if !p.bounded(maxBase, j, addPower, tSafe) {
		for i, b := range base {
			if b+float64(row[i]*addPower) > tSafe {
				return 0, false
			}
		}
	}
	return base[j] + float64(row[j]*addPower), true
}

// bounded reports whether maxBase + rowMax[j]·addPower, rounded as Admit
// rounds each core's temperature, is at most tSafe. For addPower ≥ 0 and
// every core i, row[i] ≤ rowMax[j] gives row[i]·addPower ≤
// rowMax[j]·addPower, and base[i] ≤ maxBase then gives base[i] +
// row[i]·addPower ≤ maxBase + rowMax[j]·addPower. IEEE rounding is
// monotone, so both steps hold for the rounded values too, and every
// core is at or below tSafe. A core whose base or response is NaN reads
// NaN, which Admit's scan never rejects either. A negative or NaN
// addPower, or a NaN bound, falls back to the scan.
func (p *Predictor) bounded(maxBase float64, j int, addPower, tSafe float64) bool {
	return addPower >= 0 && maxBase+float64(p.rowMax[j]*addPower) <= tSafe
}

// CandidatePower estimates the total power change of waking dark core j
// at approximate temperature T and running a thread of dynamic power pdyn
// on it: the dynamic power plus the core's leakage at T, minus the gated
// leakage it dissipated while dark.
func (p *Predictor) CandidatePower(j int, pdyn, T float64) float64 {
	return pdyn + float64(p.leak.Core(p.chip.LeakFactor[j], T, true)) - p.leak.Core(0, T, false)
}
