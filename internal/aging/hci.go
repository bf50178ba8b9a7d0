package aging

import (
	"fmt"
	"math"

	"github.com/kit-ces/hayat/internal/gates"
)

// This file extends the NBTI model with hot-carrier injection (HCI) — the
// second wear-out mechanism the paper's cited aging sensors monitor
// ("an all-in-one silicon odometer for separately monitoring HCI, BTI and
// TDDB" [9]). The paper's evaluation is NBTI-only; HCI support is an
// extension (DESIGN.md §5) that composes with the existing 3D-table
// machinery so the run-time system is unchanged.
//
// HCI damages NMOS devices during switching: ΔVth grows with switching
// activity (≈ duty here, see the approximation note on CompositeCoreAging),
// clock frequency and temperature, with the classic ~t^0.5 time
// dependence:
//
//	ΔVth_HCI = A · (f/f_ref) · a · e^(−T_a/T) · t^n
//
// where a is the activity factor and n ≈ 0.45–0.5.

// HCIParams are the hot-carrier model constants.
type HCIParams struct {
	// Prefactor is A in Volts (calibrated so 10-year HCI degradation is
	// a fraction of NBTI's at matched stress, as silicon odometers
	// report for logic at nominal Vdd).
	Prefactor float64
	// ActivationTemp is T_a in Kelvin.
	ActivationTemp float64
	// RefFreq is f_ref in Hz.
	RefFreq float64
	// TimeExp is n.
	TimeExp float64
}

// DefaultHCIParams returns constants producing ≈1/3 of the NBTI delay
// impact after 10 years at nominal conditions.
func DefaultHCIParams() HCIParams {
	return HCIParams{
		Prefactor:      0.55,
		ActivationTemp: 1200,
		RefFreq:        3.0e9,
		TimeExp:        0.48,
	}
}

// Validate reports parameter errors.
func (p HCIParams) Validate() error {
	if p.Prefactor < 0 {
		return fmt.Errorf("aging: negative HCI Prefactor %v", p.Prefactor)
	}
	if p.ActivationTemp <= 0 || p.RefFreq <= 0 || p.TimeExp <= 0 {
		return fmt.Errorf("aging: invalid HCI params %+v", p)
	}
	return nil
}

// DeltaVth evaluates the HCI threshold shift in Volts after `years` years
// at temperature T (Kelvin), switching activity a ∈ [0,1] and clock
// frequency f (Hz). Non-positive stress inputs yield zero.
func (p HCIParams) DeltaVth(T, years, activity, freq float64) float64 {
	if years <= 0 || activity <= 0 || freq <= 0 || T <= 0 {
		return 0
	}
	if activity > 1 {
		activity = 1
	}
	return p.Prefactor *
		(freq / p.RefFreq) *
		activity *
		math.Exp(-p.ActivationTemp/T) *
		math.Pow(years, p.TimeExp)
}

// CompositeCoreAging layers HCI on top of the NBTI core estimator. It
// exposes the same FreqFactor(T, duty, years) surface as CoreAging, so the
// 3D-table flow (BuildTableFrom) and everything downstream work unchanged.
//
// Approximation: the table axes carry only (T, duty, age), so the
// composite model uses the duty cycle as the switching-activity proxy and
// the NBTI reference frequency as the clock — both are strongly
// correlated in the workload model (high-duty phases are high-activity
// phases running near nominal frequency).
type CompositeCoreAging struct {
	nbti *CoreAging
	hci  HCIParams
}

// NewCompositeCoreAging builds the layered estimator.
func NewCompositeCoreAging(params Params, hci HCIParams, paths *gates.PathSet) (*CompositeCoreAging, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := hci.Validate(); err != nil {
		return nil, err
	}
	return &CompositeCoreAging{nbti: NewCoreAging(params, paths), hci: hci}, nil
}

// fill writes FreqFactor at every point of t's grid (see CoreAging.fill).
func (c *CompositeCoreAging) fill(t *Table3D) { c.nbti.fillWith(t, &c.hci) }

// FactorModel is anything that can fill an aging table: the NBTI-only
// CoreAging or the composite NBTI+HCI estimator. fill evaluates the model
// over a whole table grid with the loop-invariant work hoisted; the tests
// hold it bit for bit to the pointwise model, FreqFactor, at every point.
type FactorModel interface {
	fill(t *Table3D)
}

// Interface checks: both estimators can fill aging tables.
var (
	_ FactorModel = (*CoreAging)(nil)
	_ FactorModel = (*CompositeCoreAging)(nil)
)
