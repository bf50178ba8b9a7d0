package aging

import (
	"math"
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
