package aging

import (
	"math"
	"sort"
	"testing"

	"github.com/kit-ces/hayat/internal/gates"
)

// FuzzTableLookup drives the trilinear interpolation with arbitrary
// coordinates: results must stay finite, inside the table's value range,
// and equal to 1 at age ≤ 0; Lookup and EffectiveAge must equal the
// pre-change reference reads (reference_test.go) bit for bit.
func FuzzTableLookup(f *testing.F) {
	ca := NewCoreAging(DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), 1))
	tab := DefaultTable(ca)
	lo, hi := 1.0, 0.0
	for _, v := range tab.Factor {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	f.Add(350.0, 0.5, 5.0)
	f.Add(-10.0, 2.0, -3.0)
	f.Add(1e9, 1e9, 1e9)
	f.Add(298.15, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, T, d, y float64) {
		if math.IsNaN(T) || math.IsNaN(d) || math.IsNaN(y) ||
			math.IsInf(T, 0) || math.IsInf(d, 0) || math.IsInf(y, 0) {
			t.Skip()
		}
		got := tab.Lookup(T, d, y)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Lookup(%v,%v,%v) = %v", T, d, y, got)
		}
		if want := refLookup(tab, T, d, y); !bitsEqual(got, want) {
			t.Fatalf("Lookup(%v,%v,%v) = %v, reference %v", T, d, y, got, want)
		}
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("Lookup(%v,%v,%v) = %v outside table range [%v,%v]", T, d, y, got, lo, hi)
		}
		// EffectiveAge must be finite and inside the age axis for any
		// factor.
		age := tab.EffectiveAge(T, d, got)
		if math.IsNaN(age) || age < 0 || age > tab.MaxYears() {
			t.Fatalf("EffectiveAge = %v", age)
		}
		// The inputs read in another order give a factor from some other
		// point of the table, so the bisection runs off its round trip.
		factor := tab.Lookup(y, T, d)
		if age, want := tab.EffectiveAge(T, d, factor), refEffectiveAge(tab, T, d, factor); !bitsEqual(age, want) {
			t.Fatalf("EffectiveAge(%v,%v,%v) = %v, reference %v", T, d, factor, age, want)
		}
	})
}

// FuzzStateAdvance hammers the effective-age accumulation: health must
// stay in (0, 1] and never increase.
func FuzzStateAdvance(f *testing.F) {
	ca := NewCoreAging(DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), 2))
	tab := DefaultTable(ca)
	f.Add(350.0, 0.5, 0.25, 390.0, 0.9, 1.0)
	f.Add(200.0, -1.0, 5.0, 500.0, 2.0, 0.0)
	f.Fuzz(func(t *testing.T, t1, d1, dt1, t2, d2, dt2 float64) {
		for _, v := range []float64{t1, d1, dt1, t2, d2, dt2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		s := NewState()
		prev := s.Factor
		s.Advance(tab, t1, d1, dt1)
		if s.Factor > prev || s.Factor <= 0 || s.Factor > 1 {
			t.Fatalf("first advance broke invariants: %v → %v", prev, s.Factor)
		}
		prev = s.Factor
		s.Advance(tab, t2, d2, dt2)
		if s.Factor > prev || s.Factor <= 0 {
			t.Fatalf("second advance broke invariants: %v → %v", prev, s.Factor)
		}
	})
}

// FuzzAgingTableFill builds tables from adversarial path sets and
// constants and requires every entry to equal the pointwise reference
// (refFreqFactor) and the model's FreqFactor bit for bit, under both
// aging models. Each input byte picks one choice (fillCase); the choices
// favour what the fill's path bound (DESIGN.md §20) must get right or
// decline: duplicated and reordered paths, whose exact sums tie; duty
// factors and weights of zero, above one or negative; zero
// sensitivities and negative delays; the prefactors 4, 0.05, 0 and −4;
// duty exponents of 0 and outside the proven range; and short axes with
// odd, negative and clamped points.
func FuzzAgingTableFill(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 4, 0, 5, 1, 1, 1, 1, 1, 0, 2, 1, 3, 2, 1, 4, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 1, 3, 1, 8, 6, 7, 0, 9, 5, 2, 2, 4, 6, 7, 0, 3, 9, 1, 7, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0})
	f.Add([]byte{0, 2, 1, 0, 6, 3, 3, 3, 3, 3, 3, 1, 0, 2, 1, 1, 4, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		params, paths, temps, duties, years := fillCase(data)
		if paths.MaxUnagedDelay() <= 0 {
			t.Skip() // NewCoreAging rejects it
		}
		nbti := NewCoreAging(params, paths)
		models := []struct {
			model pointwiseModel
			hci   *HCIParams
		}{{nbti, nil}}
		hci := DefaultHCIParams()
		if comp, err := NewCompositeCoreAging(params, hci, paths); err == nil {
			models = append(models, struct {
				model pointwiseModel
				hci   *HCIParams
			}{comp, &hci})
		}
		for _, m := range models {
			tab, err := BuildTable(m.model, temps, duties, years)
			if err != nil {
				t.Fatal(err)
			}
			for ti, T := range temps {
				for di, d := range duties {
					for yi, y := range years {
						want := refFreqFactor(nbti, m.hci, T, d, y)
						if got := tab.At(ti, di, yi); !bitsEqual(got, want) {
							t.Fatalf("hci %v: table(%v,%v,%v) = %v, reference %v", m.hci != nil, T, d, y, got, want)
						}
						if got := m.model.FreqFactor(T, d, y); !bitsEqual(got, want) {
							t.Fatalf("hci %v: FreqFactor(%v,%v,%v) = %v, reference %v", m.hci != nil, T, d, y, got, want)
						}
					}
				}
			}
		}
	})
}

// fillCase decodes one FuzzAgingTableFill input. Each byte picks one
// choice; once the bytes run out every choice is the first.
func fillCase(data []byte) (Params, *gates.PathSet, []float64, []float64, []float64) {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	params := DefaultParams()
	params.Prefactor = []float64{4, 0.05, 0, 900, -4}[pick(5)]
	params.DutyExp = []float64{1.0 / 6, 0, 0.25, 1, 5, -0.5}[pick(6)]
	params.Vdd = []float64{1.13, 1.05}[pick(2)]

	lib := gates.Library()
	cell := func() gates.Cell {
		c := lib[pick(len(lib))]
		switch pick(9) {
		case 1:
			c.VthSensitivity = 0
		case 2:
			c.PMOSDutyWeight = 0
		case 3:
			c.PMOSDutyWeight = 1.5
		case 4:
			c.Delay *= 1e12 // picoseconds: a unit-scale path
		case 5:
			c.Delay = 0
		case 6:
			c.VthSensitivity = 0x1p70 // outside the proven range
		case 7:
			c.Delay = -c.Delay
		}
		return c
	}
	dutyFactors := []float64{0.3, 0.5, 0.75, 1, 0, 1.25, 0.999, 0x1p-70, -0.5}
	set := &gates.PathSet{}
	for n := 1 + pick(6); len(set.Paths) < n; {
		var els []gates.Element
		switch prev := set.Paths; {
		case len(prev) > 0 && pick(3) == 0:
			// An exact copy, or the same elements in reverse order: the
			// two sums are equal in exact arithmetic but may round apart.
			src := prev[pick(len(prev))].Elements
			els = append(els, src...)
			if pick(2) == 1 {
				for i, j := 0, len(els)-1; i < j; i, j = i+1, j-1 {
					els[i], els[j] = els[j], els[i]
				}
			}
		default:
			for k := pick(9); k > 0; k-- {
				els = append(els, gates.Element{Cell: cell(), DutyFactor: dutyFactors[pick(len(dutyFactors))]})
			}
		}
		set.Paths = append(set.Paths, gates.Path{Elements: els})
	}
	// Each axis is an increasing subset of its pool with at least two
	// points.
	axis := func(pool []float64) []float64 {
		var a []float64
		for _, v := range pool {
			if pick(2) == 1 {
				a = append(a, v)
			}
		}
		if len(a) < 2 {
			a = append([]float64(nil), pool[:2]...)
		}
		return a
	}
	temps := axis([]float64{298.15, 351.7, 0, 250, 420.2})
	duties := axis([]float64{0.5, 1, -0.25, 0, 0x1p-70, 0.1, 0.85, 1.5})
	years := axis([]float64{3, 12, -1, 0, 0.083, 0.5})
	sort.Float64s(temps)
	sort.Float64s(duties)
	sort.Float64s(years)
	return params, set, temps, duties, years
}
