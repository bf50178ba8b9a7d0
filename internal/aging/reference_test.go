package aging

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/kit-ces/hayat/internal/gates"
)

// This file keeps the pointwise table build and the table reads as they
// were before the loop-invariant work was hoisted out of them, verbatim,
// as test references. The production code must match them bit for bit.

// refDeltaVth is Eq. 7 written as one five-factor product.
func refDeltaVth(p Params, T, years, duty float64) float64 {
	if years <= 0 || duty <= 0 || T <= 0 {
		return 0
	}
	if duty > 1 {
		duty = 1
	}
	return p.Prefactor *
		math.Exp(-p.ActivationTemp/T) *
		math.Pow(p.Vdd, p.VddExp) *
		math.Pow(years, p.TimeExp) *
		math.Pow(duty, p.DutyExp)
}

// refFreqFactor is CoreAging.FreqFactor (hci == nil) or
// CompositeCoreAging.FreqFactor over refDeltaVth.
func refFreqFactor(ca *CoreAging, hci *HCIParams, T, duty, years float64) float64 {
	hciShift := 0.0
	if hci != nil {
		hciShift = hci.DeltaVth(T, years, duty, hci.RefFreq)
	}
	max := 0.0
	for i := range ca.paths.Paths {
		p := &ca.paths.Paths[i]
		sum := 0.0
		for _, e := range p.Elements {
			effDuty := duty * e.DutyFactor * e.Cell.PMOSDutyWeight
			dvth := refDeltaVth(ca.params, T, years, effDuty)
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
	return ca.unaged / max
}

func refBracket(axis []float64, v float64) (int, float64) {
	if v <= axis[0] {
		return 0, 0
	}
	if last := len(axis) - 1; v >= axis[last] {
		return last - 1, 1
	}
	i := sort.SearchFloat64s(axis, v)
	lo := i - 1
	w := (v - axis[lo]) / (axis[lo+1] - axis[lo])
	return lo, w
}

func refLookup(t *Table3D, T, d, y float64) float64 {
	ti, tw := refBracket(t.Temps, T)
	di, dw := refBracket(t.Duties, d)
	yi, yw := refBracket(t.Years, y)
	f := 0.0
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
			for dy := 0; dy < 2; dy++ {
				wy := yw
				if dy == 0 {
					wy = 1 - yw
				}
				if wy == 0 {
					continue
				}
				f += wt * wd * wy * t.At(ti+dt, di+dd, yi+dy)
			}
		}
	}
	return f
}

func refEffectiveAge(t *Table3D, T, d, factor float64) float64 {
	lo, hi := 0.0, t.MaxYears()
	if factor >= refLookup(t, T, d, lo) {
		return lo
	}
	if factor <= refLookup(t, T, d, hi) {
		return hi
	}
	for iter := 0; iter < 60; iter++ {
		mid := 0.5 * (lo + hi)
		if refLookup(t, T, d, mid) > factor {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// otherParams is a second constant set for the reference checks. The
// default Prefactor 4 is a power of two, which multiplies exactly and so
// hides a regrouped product; the paper's printed 0.05 does not.
func otherParams() Params {
	p := DefaultParams()
	p.Prefactor, p.Vdd = 0.05, 1.05
	return p
}

func TestDeltaVthMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []Params{DefaultParams(), otherParams()} {
		for i := 0; i < 20000; i++ {
			T := 250 + 200*rng.Float64()
			y := 13*rng.Float64() - 0.5
			d := 1.4*rng.Float64() - 0.2
			if got, want := p.DeltaVth(T, y, d), refDeltaVth(p, T, y, d); !bitsEqual(got, want) {
				t.Fatalf("%+v: DeltaVth(%v,%v,%v) = %v, reference %v", p, T, y, d, got, want)
			}
		}
	}
}

// Every entry of a built table — and the pointwise FreqFactor — must be
// bit for bit the pre-hoisting pointwise evaluation, for both aging
// models, several path sets and two constant sets. FreqFactor is checked
// at every fifth point to keep the test quick; the table at every point.
func TestTableMatchesPointwiseReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 11} {
		params := DefaultParams()
		if seed == 11 {
			params = otherParams()
		}
		paths := gates.Generate(gates.DefaultGenerateConfig(), seed)
		nbti := NewCoreAging(params, paths)
		comp, err := NewCompositeCoreAging(params, DefaultHCIParams(), paths)
		if err != nil {
			t.Fatal(err)
		}
		hci := DefaultHCIParams()
		for _, m := range []struct {
			name  string
			model pointwiseModel
			hci   *HCIParams
		}{{"nbti", nbti, nil}, {"nbti+hci", comp, &hci}} {
			tab := DefaultTable(m.model)
			point := 0
			for ti, T := range tab.Temps {
				for di, d := range tab.Duties {
					for yi, y := range tab.Years {
						want := refFreqFactor(nbti, m.hci, T, d, y)
						if got := tab.At(ti, di, yi); !bitsEqual(got, want) {
							t.Fatalf("seed %d %s table(%v,%v,%v) = %v, reference %v", seed, m.name, T, d, y, got, want)
						}
						if point++; point%5 != 0 {
							continue
						}
						if got := m.model.FreqFactor(T, d, y); !bitsEqual(got, want) {
							t.Fatalf("seed %d %s FreqFactor(%v,%v,%v) = %v, reference %v", seed, m.name, T, d, y, got, want)
						}
					}
				}
			}
		}
	}
}

// Lookup and EffectiveAge must equal the pre-change reads bit for bit at
// random points in and beyond the grid, and exactly on grid nodes.
func TestLookupAndEffectiveAgeMatchReference(t *testing.T) {
	tab := DefaultTable(NewCoreAging(DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), 4)))
	rng := rand.New(rand.NewSource(6))
	pick := func(axis []float64, span float64) float64 {
		if rng.Intn(4) == 0 {
			return axis[rng.Intn(len(axis))] // exactly on a node
		}
		lo, hi := axis[0], axis[len(axis)-1]
		return lo - span + (hi-lo+2*span)*rng.Float64()
	}
	for i := 0; i < 5000; i++ {
		T := pick(tab.Temps, 20)
		d := pick(tab.Duties, 0.2)
		y := pick(tab.Years, 1)
		if got, want := tab.Lookup(T, d, y), refLookup(tab, T, d, y); !bitsEqual(got, want) {
			t.Fatalf("Lookup(%v,%v,%v) = %v, reference %v", T, d, y, got, want)
		}
		factor := 0.8 + 0.25*rng.Float64()
		if got, want := tab.EffectiveAge(T, d, factor), refEffectiveAge(tab, T, d, factor); !bitsEqual(got, want) {
			t.Fatalf("EffectiveAge(%v,%v,%v) = %v, reference %v", T, d, factor, got, want)
		}
	}
}
