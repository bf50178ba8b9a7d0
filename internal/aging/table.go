package aging

import (
	"fmt"
	"math"
)

// Table3D is the offline-generated 3D aging table of Fig. 5 step (1): a
// lattice over (temperature, duty cycle, age) whose entries are the
// frequency-degradation factor f_max(y)/f_max(0) ∈ (0, 1]. The online
// system performs only (trilinearly interpolated) lookups and inversions
// on this table — never SPICE-style simulation — which is what makes
// `estimateNextHealth` cheap enough for run-time use.
type Table3D struct {
	// Temps (Kelvin), Duties (fraction) and Years are the grid axes, each
	// strictly increasing.
	Temps, Duties, Years []float64
	// Factor holds the frequency factor, indexed
	// [ti*len(Duties)*len(Years) + di*len(Years) + yi].
	Factor []float64
}

// DefaultTemps spans 25 °C to 147 °C — Fig. 1(b)'s family plus headroom
// above T_safe.
func DefaultTemps() []float64 {
	t := make([]float64, 0, 13)
	for k := 298.15; k <= 420.2; k += 10 {
		t = append(t, k)
	}
	return t
}

// DefaultDuties covers the paper's generic (50 %), estimated, and
// worst-case (85–100 %) duty settings.
func DefaultDuties() []float64 {
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85, 1.0}
}

// DefaultYears is denser early where y^(1/6) is steep.
func DefaultYears() []float64 {
	return []float64{0, 0.083, 0.25, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
}

// BuildTable evaluates an aging estimator (NBTI-only CoreAging or the
// composite NBTI+HCI model) on the given grid. This is the "start-up time
// effort for a given chip" the paper describes; it is the only place the
// gate-level model is exercised at scale. Every entry equals the
// estimator's FreqFactor at that grid point, bit for bit.
func BuildTable(ca FactorModel, temps, duties, years []float64) (*Table3D, error) {
	for name, axis := range map[string][]float64{"temps": temps, "duties": duties, "years": years} {
		if len(axis) < 2 {
			return nil, fmt.Errorf("aging: axis %s needs ≥2 points", name)
		}
		for i, v := range axis {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("aging: axis %s has non-finite point %v", name, v)
			}
			if i > 0 && v <= axis[i-1] {
				return nil, fmt.Errorf("aging: axis %s must be strictly increasing, but %v follows %v", name, v, axis[i-1])
			}
		}
	}
	t := &Table3D{
		Temps:  append([]float64(nil), temps...),
		Duties: append([]float64(nil), duties...),
		Years:  append([]float64(nil), years...),
		Factor: make([]float64, len(temps)*len(duties)*len(years)),
	}
	ca.fill(t)
	return t, nil
}

// DefaultTable builds a table on the default axes.
func DefaultTable(ca FactorModel) *Table3D {
	t, err := BuildTable(ca, DefaultTemps(), DefaultDuties(), DefaultYears())
	if err != nil {
		panic(err) // default axes are statically valid
	}
	return t
}

func (t *Table3D) index(ti, di, yi int) int {
	return ti*len(t.Duties)*len(t.Years) + di*len(t.Years) + yi
}

// At returns the stored factor at grid indices (ti, di, yi).
func (t *Table3D) At(ti, di, yi int) float64 { return t.Factor[t.index(ti, di, yi)] }

// bracket finds i such that axis[i] ≤ v ≤ axis[i+1], clamping v into the
// axis range, and returns (i, interpolation weight).
func bracket(axis []float64, v float64) (int, float64) {
	if v <= axis[0] {
		return 0, 0
	}
	if last := len(axis) - 1; v >= axis[last] {
		return last - 1, 1
	}
	// sort.SearchFloat64s inlined, so the hot path builds no closure:
	// the smallest i with axis[i] ≥ v, and axis[i-1] < v ≤ axis[i].
	i, j := 0, len(axis)
	for i < j {
		h := int(uint(i+j) >> 1)
		if !(axis[h] >= v) {
			i = h + 1
		} else {
			j = h
		}
	}
	lo := i - 1
	w := (v - axis[lo]) / (axis[lo+1] - axis[lo])
	return lo, w
}

// Lookup returns the trilinearly interpolated frequency factor at
// temperature T (Kelvin), duty d and age y years. Inputs outside the grid
// are clamped to the boundary — the physical regimes beyond the table are
// not extrapolated.
func (t *Table3D) Lookup(T, d, y float64) float64 {
	var c AgeCurve
	c.init(t, T, d)
	return c.At(y)
}

// MaxYears returns the last point of the age axis.
func (t *Table3D) MaxYears() float64 { return t.Years[len(t.Years)-1] }

// FactorBound returns a value no AgeCurve.At on t exceeds: the largest
// table entry times (1 + 1e-12). At(y) sums table entries times
// interpolation weights that are non-negative and add up to one within a
// few ulps, and each product and sum rounds by at most half an ulp, so for
// non-negative entries the computed value stays within a relative 1e-15
// or so of a convex combination of them. A table holding a negative or NaN
// entry, or one whose entries all lie below 2^-1000 (where the products
// could underflow), gets +Inf, which bounds anything.
func (t *Table3D) FactorBound() float64 {
	m := 0.0
	for _, f := range t.Factor {
		if !(f >= 0) {
			return math.Inf(1)
		}
		if f > m {
			m = f
		}
	}
	if m < 0x1p-1000 {
		return math.Inf(1)
	}
	return m * (1 + 1e-12)
}

// AgeCurve is the table at one fixed (temperature, duty) point: the
// frequency factor as a function of age alone. It brackets T and d once,
// so a caller that reads one (T, d) point many times — an EffectiveAge
// bisection, or an inversion followed by a forward read — pays the two
// axis searches once instead of per read. At(y) forms the same eight
// weighted terms in the same order as the trilinear formula, so it is
// bit for bit Lookup(T, d, y).
type AgeCurve struct {
	t *Table3D
	// base[k] is the flat index of (T corner, d corner, age 0) of the
	// k-th (T, d) corner with non-zero weight, in Lookup's corner order;
	// w[k] is that corner's weight product wt·wd.
	base [4]int
	w    [4]float64
	n    int
}

// Curve returns the table restricted to temperature T (Kelvin) and duty
// d, clamped into the grid like Lookup.
func (t *Table3D) Curve(T, d float64) AgeCurve {
	var c AgeCurve
	c.init(t, T, d)
	return c
}

// init sets c to t's curve at (T, d) in place; the table's own reads use
// it to keep the curve off the copy path.
func (c *AgeCurve) init(t *Table3D, T, d float64) {
	ti, tw := bracket(t.Temps, T)
	di, dw := bracket(t.Duties, d)
	c.t, c.n = t, 0
	for dt := 0; dt < 2; dt++ {
		wt := tw
		if dt == 0 {
			wt = 1 - tw
		}
		if wt == 0 {
			continue
		}
		for dd := 0; dd < 2; dd++ {
			wd := dw
			if dd == 0 {
				wd = 1 - dw
			}
			if wd == 0 {
				continue
			}
			c.base[c.n] = t.index(ti+dt, di+dd, 0)
			c.w[c.n] = wt * wd
			c.n++
		}
	}
}

// At returns the interpolated frequency factor at age y years.
func (c *AgeCurve) At(y float64) float64 {
	yi, yw := bracket(c.t.Years, y)
	return c.atSegment(yi, yw)
}

// atSegment is At for an age that bracket places in segment yi of the
// age axis with weight yw.
func (c *AgeCurve) atSegment(yi int, yw float64) float64 {
	wy0 := 1 - yw
	f := 0.0
	for k := 0; k < c.n; k++ {
		v := c.t.Factor[c.base[k]+yi:][:2]
		if wy0 != 0 {
			f += float64(c.w[k] * wy0 * v[0])
		}
		if yw != 0 {
			f += float64(c.w[k] * yw * v[1])
		}
	}
	return f
}

// EffectiveAge inverts the curve: it returns the age y at which a core
// operating continuously at the curve's (T, d) would exhibit the given
// frequency factor. This is the "current estimated position/index in the
// 3D-aging tables" of Fig. 5 step (3).
//
// The factor is monotonically non-increasing in age, so a bisection
// suffices. Degenerate cases: a factor ≥ the unaged value maps to age 0; a
// factor below anything reachable at (T, d) maps to the table's maximum
// age (conditions milder than the core's history cannot "un-age" it —
// long-term NBTI aging is not reversed).
//
// The bisection is the 60-step one it always was, bit for bit, with two
// shortcuts that change no value (DESIGN.md §21):
//
//   - Once mid equals lo or hi, the step it takes leaves [lo, hi] as it
//     is or collapses it to the point mid, and either state maps to
//     itself on every later step, so the loop stops there.
//   - Once [lo, hi] lies inside one age segment (Years[s], Years[s+1]],
//     every later mid does too, and bracket would return segment s with
//     the weight (mid − Years[s])/(Years[s+1] − Years[s]); the loop
//     computes that weight itself instead of searching the axis again.
//     This needs mid to stay inside [lo, hi], which holds while lo + hi
//     cannot overflow, so it is taken only on an age axis inside
//     [−2^1000, 2^1000] with a positive last point.
func (c *AgeCurve) EffectiveAge(factor float64) float64 {
	lo, hi := 0.0, c.t.MaxYears()
	if factor >= c.At(lo) {
		return lo
	}
	if factor <= c.At(hi) {
		return hi
	}
	ys := c.t.Years
	seg := -1 // the age segment holding [lo, hi]; −1 until one does
	if !(ys[0] >= -0x1p1000 && hi > 0 && hi <= 0x1p1000) {
		seg = -2 // the shortcut is unproven: search on every step
	}
	for iter := 0; iter < 60; iter++ {
		mid := float64(0.5 * (lo + hi)) // rounded here: it feeds the segment weight's subtraction
		var yi int
		var yw float64
		if seg >= 0 {
			yi, yw = seg, (mid-ys[seg])/(ys[seg+1]-ys[seg])
		} else {
			yi, yw = bracket(ys, mid)
		}
		last := mid == lo || mid == hi
		if c.atSegment(yi, yw) > factor {
			lo = mid
		} else {
			hi = mid
		}
		if last {
			break
		}
		if seg == -1 && ys[yi] < lo && hi <= ys[yi+1] {
			seg = yi
		}
	}
	return float64(0.5 * (lo + hi))
}

// State is the per-core aging state carried across epochs: the current
// health factor h = f_max(t)/f_max(init).
type State struct {
	Factor float64
}

// NewState returns the unaged state (health 1.0).
func NewState() State { return State{Factor: 1} }

// Advance ages the state by dtYears under conditions (T, d): it converts
// the current factor into an effective age at the new conditions, advances
// the age, and re-reads the table — the paper's "follow a new 3D-path
// inside the table" step. Advancing by zero or negative time is a no-op.
func (s *State) Advance(tab *Table3D, T, d, dtYears float64) {
	if dtYears <= 0 {
		return
	}
	c := tab.Curve(T, d)
	newFactor := c.At(c.EffectiveAge(s.Factor) + dtYears)
	// Aging never improves health; guard against interpolation wiggle.
	if newFactor < s.Factor {
		s.Factor = newFactor
	}
}

// PredictFactor returns the health the state would have after advancing by
// dtYears at (T, d) — the read-only version of Advance used by
// estimateNextHealth in Algorithm 1.
//
//lint:ignore reachability backs EXPERIMENTS.md's E10 through core.EstimateNextHealth and the root BenchmarkEstimateNextHealth; the aging and exact tests use it
func (s State) PredictFactor(tab *Table3D, T, d, dtYears float64) float64 {
	if dtYears <= 0 {
		return s.Factor
	}
	c := tab.Curve(T, d)
	f := c.At(c.EffectiveAge(s.Factor) + dtYears)
	if f > s.Factor {
		return s.Factor
	}
	return f
}

// NaiveAdvance is the ablation variant (DESIGN.md §5): it accumulates
// degradation increments without re-anchoring the effective age, i.e. it
// treats aging as if the whole history had happened at the current (T, d).
// Used only by benchmarks to quantify the error of the naive scheme.
//
//lint:ignore reachability backs EXPERIMENTS.md's naive-aging ablation through the root BenchmarkAblationNaiveAging
func (s *State) NaiveAdvance(tab *Table3D, T, d, elapsedYears, dtYears float64) {
	if dtYears <= 0 {
		return
	}
	before := tab.Lookup(T, d, elapsedYears)
	after := tab.Lookup(T, d, elapsedYears+dtYears)
	if before <= 0 {
		return
	}
	s.Factor *= after / before
	if s.Factor > 1 {
		s.Factor = 1
	}
}
