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
	return float64(p.stressPrefix(T, years) * p.dutyTerm(duty))
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
			sum += float64(e.Cell.Delay * (1 + float64(e.Cell.VthSensitivity*dvth)))
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// fill writes FreqFactor at every point of t's grid.
func (ca *CoreAging) fill(t *Table3D) { ca.fillWith(t, nil) }

// fillWith is fill with an optional hot-carrier model: hci, when non-nil,
// adds the composite model's HCI shift to every element.
//
// Each entry is the slowest path's sum, formed by the same operations in
// the same order as AgedDelay's (and CompositeCoreAging.AgedDelay's),
// including the zero-stress guard and the duty clamp, so each entry is
// bit for bit the pointwise FreqFactor. Two kinds of work that cannot
// change an entry are skipped:
//   - the loop-invariant parts of Eq. 7 (DESIGN.md §16): the (T, age)
//     prefix is computed once per (T, age) point, and an element's duty
//     term at most once per duty point, on its path's first sum there;
//   - the sums of paths that cannot be the slowest (DESIGN.md §20): a
//     path is summed only if its upper bound reaches the largest lower
//     bound, which some summed path's sum reaches. A path left out sums
//     to less than that path, so it can neither be the maximum nor tie it.
func (ca *CoreAging) fillWith(t *Table3D, hci *HCIParams) {
	p := ca.params
	paths := ca.paths.Paths
	np := len(paths)
	// Path i's elements are k in [first[i], first[i+1]) of the flat
	// element order.
	first := make([]int, np+1)
	for i := range paths {
		first[i+1] = first[i] + len(paths[i].Elements)
	}
	nElem := first[np]
	// terms[di*nElem+k] is element k's duty term at duty di; stressed
	// marks the elements DeltaVth does not zero by its duty guard. ready
	// marks the (duty, path) pairs whose elements are filled in.
	terms := make([]float64, len(t.Duties)*nElem)
	stressed := make([]bool, len(t.Duties)*nElem)
	ready := make([]bool, len(t.Duties)*np)
	bounds := ca.pathBounds(t.Duties)
	hi := make([]float64, np)
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
					hciShift = float64(hci.DeltaVth(T, y, d, hci.RefFreq))
				}
				cut, pruned := bounds.cut(hi, di, pre, hciShift)
				rowTerms := terms[di*nElem : (di+1)*nElem]
				rowStressed := stressed[di*nElem : (di+1)*nElem]
				max := 0.0
				for i := range paths {
					if pruned && hi[i] < cut {
						continue // cannot be the slowest path
					}
					k := first[i]
					if aged && !ready[di*np+i] {
						for j, e := range paths[i].Elements {
							effDuty := d * e.DutyFactor * e.Cell.PMOSDutyWeight
							if !(effDuty <= 0) {
								rowTerms[k+j], rowStressed[k+j] = p.dutyTerm(effDuty), true
							}
						}
						ready[di*np+i] = true
					}
					sum := 0.0
					for _, e := range paths[i].Elements {
						dvth := 0.0
						if aged && rowStressed[k] {
							dvth = float64(pre * rowTerms[k])
						}
						k++
						if hci != nil {
							sum += float64(e.Cell.Delay * (1 + float64(e.Cell.VthSensitivity*(dvth+hciShift))))
						} else {
							sum += float64(e.Cell.Delay * (1 + float64(e.Cell.VthSensitivity*dvth)))
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

// The path bound of the table fill (DESIGN.md §20). At a table point,
// path p's aged delay is, in exact arithmetic,
//
//	U_p + pre·V_p(d) + hciShift·W_p
//
// with U_p = Σ Delay, W_p = Σ Delay·Sens and V_p(d) = Σ Delay·Sens·dutyTerm
// over the path's stressed elements. The duty term factors,
// (d·DutyFactor·PMOSDutyWeight)^e = d^e·(DutyFactor·PMOSDutyWeight)^e, so
// V_p(d) = d^e·G_p costs one Pow per duty point once G_p is known. The
// computed sum and the computed linear form each lie within a relative
// 2^-35 of that exact value while the inputs stay inside the ranges below,
// so boundMargin, 32 times wider, bounds the sum on both sides.
const (
	// boundMargin is the bound's relative margin, on each side.
	boundMargin = 0x1p-30
	// boundLo and boundHi bracket every non-zero delay, sensitivity, duty
	// factor, PMOS weight and positive duty point, and cap the prefix, the
	// HCI shift and the magnitude of a non-positive duty point.
	boundLo, boundHi = 0x1p-64, 0x1p64
	// boundMaxLen is the longest path the margin covers: a sum of n
	// non-negative terms rounds by at most about n·2^-53.
	boundMaxLen = 1 << 16
	// boundMaxExp is the largest duty exponent the factored duty term
	// covers: it keeps d^e and (DutyFactor·PMOSDutyWeight)^e normal.
	boundMaxExp = 4
)

// inBoundRange reports whether x is zero or within [boundLo, boundHi].
func inBoundRange(x float64) bool { return x == 0 || (x >= boundLo && x <= boundHi) }

// fillBounds holds each path's linear form for the table fill.
type fillBounds struct {
	u, w []float64 // per path: U_p and W_p
	// v[di*len(u)+i] is path i's V at duty point di; rowOK marks the duty
	// points where the bound is proven.
	v     []float64
	rowOK []bool
}

// pathBounds returns the paths' linear forms on the given duty axis, or
// nil when an input leaves the bound unproven everywhere: a delay,
// sensitivity, duty factor or PMOS weight outside inBoundRange (so
// negative or non-finite), a duty exponent outside [0, boundMaxExp] or a
// path longer than boundMaxLen.
func (ca *CoreAging) pathBounds(duties []float64) *fillBounds {
	exp := ca.params.DutyExp
	if !(exp >= 0 && exp <= boundMaxExp) {
		return nil
	}
	paths := ca.paths.Paths
	np := len(paths)
	b := &fillBounds{
		u:     make([]float64, np),
		w:     make([]float64, np),
		v:     make([]float64, len(duties)*np),
		rowOK: make([]bool, len(duties)),
	}
	g := make([]float64, np)
	for i := range paths {
		els := paths[i].Elements
		if len(els) > boundMaxLen {
			return nil
		}
		for _, e := range els {
			c := e.Cell
			if !inBoundRange(c.Delay) || !inBoundRange(c.VthSensitivity) ||
				!inBoundRange(e.DutyFactor) || !inBoundRange(c.PMOSDutyWeight) {
				return nil
			}
			ds := float64(c.Delay * c.VthSensitivity)
			b.u[i] += c.Delay
			b.w[i] += ds
			// An element whose duty factor or weight is zero is stressed
			// at no duty point, so it adds nothing to V, whatever the
			// exponent (0^0 is 1).
			if q := e.DutyFactor * c.PMOSDutyWeight; q > 0 {
				g[i] += float64(ds * math.Pow(q, exp))
			}
		}
	}
	for di, d := range duties {
		switch {
		case d <= 0 && d >= -boundHi:
			// No element is stressed: V is 0.
			b.rowOK[di] = true
		case d >= boundLo && d <= boundHi && !clampsDuty(paths, d):
			de := math.Pow(d, exp)
			for i := range g {
				b.v[di*np+i] = de * g[i]
			}
			b.rowOK[di] = true
		}
	}
	return b
}

// clampsDuty reports whether some element's effective duty at duty point
// d exceeds 1, where dutyTerm clamps it and the factored form no longer
// holds.
func clampsDuty(paths []gates.Path, d float64) bool {
	for i := range paths {
		for _, e := range paths[i].Elements {
			if d*e.DutyFactor*e.Cell.PMOSDutyWeight > 1 {
				return true
			}
		}
	}
	return false
}

// cut sets hi[i] to path i's upper bound at duty point di for the given
// prefix and HCI shift, and returns the largest lower bound. pruned is
// false, and hi untouched, when the point leaves the bound unproven: a
// nil b, a duty point outside the proven range, or a prefix or HCI shift
// outside [0, boundHi] (negative or non-finite).
func (b *fillBounds) cut(hi []float64, di int, pre, hciShift float64) (cut float64, pruned bool) {
	if b == nil || !b.rowOK[di] || !(pre >= 0 && pre <= boundHi) || !(hciShift >= 0 && hciShift <= boundHi) {
		return 0, false
	}
	v := b.v[di*len(b.u) : (di+1)*len(b.u)]
	for i, u := range b.u {
		lin := u + float64(pre*v[i]) + float64(hciShift*b.w[i])
		if lo := lin * (1 - boundMargin); lo > cut {
			cut = lo
		}
		hi[i] = lin * (1 + boundMargin)
	}
	return cut, true
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
