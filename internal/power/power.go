// Package power implements the per-core power model (the McPAT stand-in):
// frequency-proportional dynamic power and temperature/variation-dependent
// subthreshold leakage (Eq. 2), with the paper's constants — 1.18 W nominal
// subthreshold leakage per core and 0.019 W residual leakage for
// power-gated (dark) cores.
//
// Dynamic power follows P_dyn = P_nom · (f/f_nom) · activity at the fixed
// chip-level Vdd the paper assumes (core-level *frequency* scaling only, no
// per-core voltage scaling). Leakage combines the variation-dependent
// per-core factor computed by internal/variation with the thermal-voltage
// temperature dependence exp(−Vth/(n·kT/q)), normalised to 1 at the
// reference temperature, which roughly doubles leakage per ~35 K — the
// leakage–temperature positive feedback the thermal solver iterates on.
package power

import (
	"fmt"
	"math"

	"github.com/kit-ces/hayat/internal/variation"
)

// Model holds the electrical power parameters.
type Model struct {
	// NominalLeakage is the per-core subthreshold leakage in Watts at the
	// reference temperature for a variation-free core (paper: 1.18 W).
	NominalLeakage float64
	// GatedLeakage is the residual leakage of a power-gated core in Watts
	// (paper: 0.019 W), assumed temperature-insensitive (the sleep
	// transistor dominates).
	GatedLeakage float64
	// Vdd is the chip supply voltage in Volts.
	Vdd float64
	// VthNominal and SubthresholdN parameterise the leakage temperature
	// dependence exp(−Vth/(n·V_T)).
	VthNominal    float64
	SubthresholdN float64
	// TRef is the temperature (K) at which the temperature factor is 1.
	TRef float64
	// NominalFreq is f_nom in Hz for dynamic-power scaling.
	NominalFreq float64
	// MaxDynamicPower is the dynamic power in Watts of a fully active
	// thread at f_nom.
	MaxDynamicPower float64
}

// DefaultModel returns the paper's experimental constants. MaxDynamicPower
// is calibrated jointly with the thermal stack so that (a) typical 32-core
// mappings land in Fig. 2's 325–345 K steady-state band and (b) dense
// contiguous mappings under heavy workload phases approach T_safe = 95 °C,
// producing the DTM activity of Fig. 7.
func DefaultModel() Model {
	return Model{
		NominalLeakage:  1.18,
		GatedLeakage:    0.019,
		Vdd:             1.13,
		VthNominal:      0.30,
		SubthresholdN:   1.5,
		TRef:            318.15,
		NominalFreq:     3.0e9,
		MaxDynamicPower: 9.0,
	}
}

// Validate sanity-checks the model.
func (m Model) Validate() error {
	if m.NominalLeakage < 0 || m.GatedLeakage < 0 {
		return fmt.Errorf("power: negative leakage (%v, %v)", m.NominalLeakage, m.GatedLeakage)
	}
	if m.NominalFreq <= 0 {
		return fmt.Errorf("power: NominalFreq must be positive, got %v", m.NominalFreq)
	}
	if m.TRef <= 0 || m.SubthresholdN <= 0 {
		return fmt.Errorf("power: invalid thermal parameters TRef=%v n=%v", m.TRef, m.SubthresholdN)
	}
	if m.MaxDynamicPower < 0 {
		return fmt.Errorf("power: negative MaxDynamicPower %v", m.MaxDynamicPower)
	}
	return nil
}

// LeakageTempFactor returns the leakage multiplier at temperature T (K)
// relative to TRef: exp(−Vth/(n·V_T(T))) / exp(−Vth/(n·V_T(TRef))).
// It is 1 at TRef and strictly increasing in T.
func (m Model) LeakageTempFactor(T float64) float64 {
	if T <= 0 {
		return 0
	}
	vt := variation.BoltzmannOverQ * T
	vtRef := variation.BoltzmannOverQ * m.TRef
	return math.Exp(-m.VthNominal/(m.SubthresholdN*vt)) /
		math.Exp(-m.VthNominal/(m.SubthresholdN*vtRef))
}

// CoreLeakage returns the leakage power in Watts of one core at
// temperature T. leakFactor is the per-core variation multiplier
// (variation.Chip.LeakFactor); on is the core's power state — dark cores
// dissipate only GatedLeakage.
func (m Model) CoreLeakage(leakFactor, T float64, on bool) float64 {
	if !on {
		return m.GatedLeakage
	}
	return m.NominalLeakage * leakFactor * m.LeakageTempFactor(T)
}

// DynamicPower returns the dynamic power in Watts of a thread running at
// frequency f with the given activity ∈ [0, 1] (fraction of peak switching
// capacitance exercised). Frequencies and activities are clamped at zero.
func (m Model) DynamicPower(f, activity float64) float64 {
	if f < 0 {
		f = 0
	}
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	return m.MaxDynamicPower * (f / m.NominalFreq) * activity
}
