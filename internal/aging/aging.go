// Package aging implements the NBTI-induced aging model of Section IV-B:
// the reaction–diffusion ΔVth law (Eq. 7), per-path delay degradation over
// the gate library (Eq. 8), the offline-generated 3D aging tables
// (temperature × duty cycle × age → frequency-degradation factor), and the
// effective-age state that lets the online system "follow a new 3D path
// inside the table" when temperature or duty-cycle conditions change
// between aging epochs.
//
// # Health
//
// The paper defines the health of core i at time t as
// f_max(i,t)/f_max(i,init). Because f_max is the reciprocal of the slowest
// critical path's delay, health equals unagedDelay/agedDelay, a number in
// (0, 1]. This package computes that factor; per-core absolute frequencies
// live with the variation model.
//
// # Calibration note (documented substitution)
//
// Eq. 7 is printed in the paper as ΔVth = 0.05·e^(−1500/T)·Vdd⁴·y^(1/6)·d^(1/6).
// With the printed prefactor 0.05 the model yields ΔVth ≈ 2 mV after 10
// years at 95 °C — three orders of magnitude below the ≥50 mV shifts and
// the 1.1×–1.4× delay increases the same paper reports (Fig. 1(b)) and the
// 10–17 % frequency degradation of Fig. 2(o). We therefore keep the exact
// functional form but calibrate the prefactor (DefaultParams.Prefactor = 4.0)
// so that the model reproduces Fig. 1(b)'s temperature family and
// Fig. 2(o)'s year-10 frequencies; the fitted constants of the original
// came from a proprietary TSMC 45 nm library scaled to 11 nm.
package aging

import (
	"fmt"
	"math"

	"github.com/kit-ces/hayat/internal/gates"
)

// Params are the constants of the ΔVth model (Eq. 7).
type Params struct {
	// Prefactor is the leading constant (paper prints 0.05; see the
	// calibration note in the package comment).
	Prefactor float64
	// ActivationTemp is the 1500 K constant in e^(−1500/T).
	ActivationTemp float64
	// Vdd is the supply voltage in Volts (enters as Vdd^VddExp).
	Vdd float64
	// VddExp, TimeExp, DutyExp are the exponents of Vdd, age and duty.
	VddExp, TimeExp, DutyExp float64
}

// DefaultParams returns the calibrated reaction–diffusion constants for the
// paper's 1.13 V, 11 nm setup.
func DefaultParams() Params {
	return Params{
		Prefactor:      4.0,
		ActivationTemp: 1500,
		Vdd:            1.13,
		VddExp:         4,
		TimeExp:        1.0 / 6.0,
		DutyExp:        1.0 / 6.0,
	}
}

// DeltaVth evaluates Eq. 7: the mean threshold-voltage shift in Volts after
// `years` years of stress at temperature T (Kelvin) and duty cycle d ∈ [0,1].
// Negative inputs are treated as zero stress.
func (p Params) DeltaVth(T, years, duty float64) float64 {
	if years <= 0 || duty <= 0 || T <= 0 {
		return 0
	}
	return p.stressPrefix(T, years) * p.dutyTerm(duty)
}

// stressPrefix is the (T, age) part of Eq. 7,
// Prefactor·e^(−A/T)·Vdd^VddExp·years^TimeExp. Go evaluates a product
// left to right, so stressPrefix·dutyTerm rounds exactly like the
// five-factor product written out: the table build can hoist the prefix
// out of its duty and gate loops without moving a bit.
func (p Params) stressPrefix(T, years float64) float64 {
	return p.Prefactor *
		math.Exp(-p.ActivationTemp/T) *
		math.Pow(p.Vdd, p.VddExp) *
		math.Pow(years, p.TimeExp)
}

// dutyTerm is the duty part of Eq. 7, d^DutyExp with d clamped to 1.
func (p Params) dutyTerm(duty float64) float64 {
	if duty > 1 {
		duty = 1
	}
	return math.Pow(duty, p.DutyExp)
}

// CoreAging estimates aging-induced delay/frequency degradation for a core
// described by a critical-path set (the core-level aging estimator of
// Fig. 5, replacing the ngspice flow).
type CoreAging struct {
	params Params
	paths  *gates.PathSet
	unaged float64 // max unaged path delay
}

// NewCoreAging builds the estimator. It panics if the path set is empty.
func NewCoreAging(params Params, paths *gates.PathSet) *CoreAging {
	if paths == nil || len(paths.Paths) == 0 {
		panic("aging: empty path set")
	}
	ca := &CoreAging{params: params, paths: paths, unaged: paths.MaxUnagedDelay()}
	if ca.unaged <= 0 {
		panic("aging: non-positive unaged delay")
	}
	return ca
}

// Params returns the model constants in use.
func (ca *CoreAging) Params() Params { return ca.params }

// UnagedDelay returns the slowest path's year-0 delay in seconds.
func (ca *CoreAging) UnagedDelay() float64 { return ca.unaged }

// AgedDelay returns the slowest path's delay in seconds after `years` years
// at temperature T (Kelvin) and core-level duty cycle d (Eq. 8 applied to
// every path, taking the maximum).
//
// The per-element stress is d·DutyFactor·PMOSDutyWeight: the core-level
// duty cycle modulated by the element's signal probability and the
// topology-dependent PMOS stress exposure.
func (ca *CoreAging) AgedDelay(T, duty, years float64) float64 {
	max := 0.0
	for i := range ca.paths.Paths {
		p := &ca.paths.Paths[i]
		sum := 0.0
		for _, e := range p.Elements {
			effDuty := duty * e.DutyFactor * e.Cell.PMOSDutyWeight
			dvth := ca.params.DeltaVth(T, years, effDuty)
			sum += e.Cell.Delay * (1 + e.Cell.VthSensitivity*dvth)
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// FreqFactor returns health after aging: f_max(y)/f_max(0) =
// unagedDelay/agedDelay ∈ (0, 1].
func (ca *CoreAging) FreqFactor(T, duty, years float64) float64 {
	return ca.unaged / ca.AgedDelay(T, duty, years)
}

// fill writes FreqFactor at every point of t's grid.
func (ca *CoreAging) fill(t *Table3D) { ca.fillWith(t, nil) }

// fillWith is fill with an optional hot-carrier model: hci, when non-nil,
// adds the composite model's HCI shift to every element.
//
// The loop-invariant parts of Eq. 7 are hoisted: each element's duty term
// is computed once per duty point and the (T, age) prefix once per (T, age)
// point, instead of once per element per table point. Every value that
// reaches an entry is still formed by the same operations in the same
// order as AgedDelay's (and CompositeCoreAging.AgedDelay's), including the
// zero-stress guard and the duty clamp, so each entry is bit for bit the
// pointwise FreqFactor.
func (ca *CoreAging) fillWith(t *Table3D, hci *HCIParams) {
	p := ca.params
	paths := ca.paths.Paths
	nElem := 0
	for i := range paths {
		nElem += len(paths[i].Elements)
	}
	// terms[di*nElem+k] is element k's duty term at duty di; stressed
	// marks the elements DeltaVth does not zero by its duty guard.
	terms := make([]float64, len(t.Duties)*nElem)
	stressed := make([]bool, len(t.Duties)*nElem)
	for di, d := range t.Duties {
		k := di * nElem
		for i := range paths {
			for _, e := range paths[i].Elements {
				effDuty := d * e.DutyFactor * e.Cell.PMOSDutyWeight
				if !(effDuty <= 0) {
					terms[k], stressed[k] = p.dutyTerm(effDuty), true
				}
				k++
			}
		}
	}
	for ti, T := range t.Temps {
		for yi, y := range t.Years {
			// DeltaVth's guard on the (T, age) inputs.
			aged := !(y <= 0 || T <= 0)
			pre := 0.0
			if aged {
				pre = p.stressPrefix(T, y)
			}
			for di, d := range t.Duties {
				hciShift := 0.0
				if hci != nil {
					hciShift = hci.DeltaVth(T, y, d, hci.RefFreq)
				}
				rowTerms := terms[di*nElem : (di+1)*nElem]
				rowStressed := stressed[di*nElem : (di+1)*nElem]
				max, k := 0.0, 0
				for i := range paths {
					sum := 0.0
					for _, e := range paths[i].Elements {
						dvth := 0.0
						if aged && rowStressed[k] {
							dvth = pre * rowTerms[k]
						}
						k++
						if hci != nil {
							sum += e.Cell.Delay * (1 + e.Cell.VthSensitivity*(dvth+hciShift))
						} else {
							sum += e.Cell.Delay * (1 + e.Cell.VthSensitivity*dvth)
						}
					}
					if sum > max {
						max = sum
					}
				}
				t.Factor[t.index(ti, di, yi)] = ca.unaged / max
			}
		}
	}
}

// DelayIncreaseFactor returns agedDelay/unagedDelay ≥ 1 — the quantity
// plotted in Fig. 1(b).
func (ca *CoreAging) DelayIncreaseFactor(T, duty, years float64) float64 {
	return ca.AgedDelay(T, duty, years) / ca.unaged
}

// Validate sanity-checks the parameters.
func (p Params) Validate() error {
	if p.Prefactor < 0 {
		return fmt.Errorf("aging: negative Prefactor %v", p.Prefactor)
	}
	if p.ActivationTemp <= 0 {
		return fmt.Errorf("aging: ActivationTemp must be positive, got %v", p.ActivationTemp)
	}
	if p.Vdd <= 0 {
		return fmt.Errorf("aging: Vdd must be positive, got %v", p.Vdd)
	}
	if p.TimeExp <= 0 || p.DutyExp < 0 {
		return fmt.Errorf("aging: invalid exponents TimeExp=%v DutyExp=%v", p.TimeExp, p.DutyExp)
	}
	return nil
}
