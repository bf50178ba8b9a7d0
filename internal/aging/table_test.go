package aging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testTable(t *testing.T) (*CoreAging, *Table3D) {
	t.Helper()
	ca := testCore()
	return ca, DefaultTable(ca)
}

func TestBuildTableValidation(t *testing.T) {
	ca := testCore()
	good := func() ([]float64, []float64, []float64) {
		return DefaultTemps(), DefaultDuties(), DefaultYears()
	}
	// Too-short axis.
	temps, duties, years := good()
	if _, err := BuildTable(ca, temps[:1], duties, years); err == nil {
		t.Error("expected error for short temps axis")
	}
	// Unsorted axis.
	temps, duties, years = good()
	duties[0], duties[1] = duties[1], duties[0]
	if _, err := BuildTable(ca, temps, duties, years); err == nil {
		t.Error("expected error for unsorted duties")
	}
	// Duplicate point.
	temps, duties, years = good()
	years[1] = years[0]
	if _, err := BuildTable(ca, temps, duties, years); err == nil {
		t.Error("expected error for duplicate years")
	}
}

func TestLookupExactAtGridPoints(t *testing.T) {
	ca, tab := testTable(t)
	for _, ti := range []int{0, 3, len(tab.Temps) - 1} {
		for _, di := range []int{0, 4, len(tab.Duties) - 1} {
			for _, yi := range []int{0, 7, len(tab.Years) - 1} {
				want := ca.FreqFactor(tab.Temps[ti], tab.Duties[di], tab.Years[yi])
				got := tab.Lookup(tab.Temps[ti], tab.Duties[di], tab.Years[yi])
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("grid lookup (%d,%d,%d) = %v, want %v", ti, di, yi, got, want)
				}
			}
		}
	}
}

func TestLookupInterpolatesBetweenNodes(t *testing.T) {
	ca, tab := testTable(t)
	T, d, y := 336.0, 0.55, 3.7 // off-grid everywhere
	got := tab.Lookup(T, d, y)
	exact := ca.FreqFactor(T, d, y)
	if math.Abs(got-exact) > 0.01 {
		t.Fatalf("interpolated %v vs exact %v: error too large", got, exact)
	}
	// And interpolation must lie between the surrounding grid values.
	lo := ca.FreqFactor(338.15, 0.6, 4)
	hi := ca.FreqFactor(328.15, 0.5, 3)
	if got < lo-1e-9 || got > hi+1e-9 {
		t.Fatalf("lookup %v outside bracket [%v, %v]", got, lo, hi)
	}
}

func TestLookupClampsOutsideGrid(t *testing.T) {
	_, tab := testTable(t)
	if got, want := tab.Lookup(100, 0.5, 5), tab.Lookup(tab.Temps[0], 0.5, 5); got != want {
		t.Errorf("low-T clamp: %v != %v", got, want)
	}
	if got, want := tab.Lookup(1000, 0.5, 5), tab.Lookup(tab.Temps[len(tab.Temps)-1], 0.5, 5); got != want {
		t.Errorf("high-T clamp: %v != %v", got, want)
	}
	if got, want := tab.Lookup(350, 0.5, 99), tab.Lookup(350, 0.5, tab.MaxYears()); got != want {
		t.Errorf("age clamp: %v != %v", got, want)
	}
}

func TestEffectiveAgeRoundTrip(t *testing.T) {
	ca, tab := testTable(t)
	for _, y := range []float64{0.5, 1, 3, 7, 10} {
		factor := ca.FreqFactor(345, 0.7, y)
		got := tab.EffectiveAge(345, 0.7, factor)
		if math.Abs(got-y) > 0.25*y+0.05 {
			t.Fatalf("EffectiveAge roundtrip: y=%v → factor=%v → %v", y, factor, got)
		}
	}
}

func TestEffectiveAgeDegenerateCases(t *testing.T) {
	_, tab := testTable(t)
	if got := tab.EffectiveAge(345, 0.7, 1.0); got != 0 {
		t.Errorf("unaged factor must map to age 0, got %v", got)
	}
	if got := tab.EffectiveAge(345, 0.7, 0.01); got != tab.MaxYears() {
		t.Errorf("unreachable factor must map to max age, got %v", got)
	}
	// Zero duty: no degradation is reachable, any aged factor maps to max
	// age and advancing adds nothing.
	s := State{Factor: 0.9}
	before := s.Factor
	s.Advance(tab, 345, 0, 1)
	if s.Factor != before {
		t.Errorf("zero-duty advance changed health: %v → %v", before, s.Factor)
	}
}

func TestAdvanceMatchesContinuousAging(t *testing.T) {
	ca, tab := testTable(t)
	// Aging in 20 quarter-year steps at constant conditions must track the
	// closed-form result.
	s := NewState()
	for i := 0; i < 20; i++ {
		s.Advance(tab, 350, 0.8, 0.25)
	}
	want := ca.FreqFactor(350, 0.8, 5)
	if math.Abs(s.Factor-want) > 0.01 {
		t.Fatalf("stepped aging %v vs continuous %v", s.Factor, want)
	}
}

func TestAdvanceNeverIncreasesHealth(t *testing.T) {
	_, tab := testTable(t)
	f := func(steps []uint16) bool {
		s := NewState()
		prev := s.Factor
		for _, raw := range steps {
			T := 300 + float64(raw%110)
			d := float64((raw/7)%100) / 100
			s.Advance(tab, T, d, 0.25)
			if s.Factor > prev+1e-12 || s.Factor <= 0 {
				return false
			}
			prev = s.Factor
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAdvanceZeroTimeNoop(t *testing.T) {
	_, tab := testTable(t)
	s := State{Factor: 0.95}
	s.Advance(tab, 350, 0.8, 0)
	s.Advance(tab, 350, 0.8, -1)
	if s.Factor != 0.95 {
		t.Fatalf("zero/negative advance changed state: %v", s.Factor)
	}
}

func TestPredictFactorIsReadOnlyAndConsistent(t *testing.T) {
	_, tab := testTable(t)
	s := State{Factor: 0.97}
	pred := s.PredictFactor(tab, 355, 0.6, 0.5)
	if s.Factor != 0.97 {
		t.Fatal("PredictFactor mutated state")
	}
	s2 := s
	s2.Advance(tab, 355, 0.6, 0.5)
	if math.Abs(pred-s2.Factor) > 1e-12 {
		t.Fatalf("PredictFactor %v != Advance result %v", pred, s2.Factor)
	}
	if got := s.PredictFactor(tab, 355, 0.6, 0); got != s.Factor {
		t.Fatalf("zero-time prediction = %v, want current factor", got)
	}
}

// The point of effective-age re-anchoring: a core that spent years cool
// then moves hot must age from its accumulated state, not restart. The
// naive scheme (ratio of factors at the same elapsed time) underestimates
// degradation when history was cooler than the present.
func TestEffectiveAgeVsNaiveOnConditionChange(t *testing.T) {
	_, tab := testTable(t)
	correct := NewState()
	naive := NewState()
	// 5 years cool, then 5 years hot.
	correct.Advance(tab, 320, 0.4, 5)
	naive.NaiveAdvance(tab, 320, 0.4, 0, 5)
	correct.Advance(tab, 400, 0.9, 5)
	naive.NaiveAdvance(tab, 400, 0.9, 5, 5)
	if correct.Factor >= naive.Factor {
		t.Fatalf("effective-age (%.4f) should predict more degradation than naive (%.4f) after cool→hot history",
			correct.Factor, naive.Factor)
	}
	if d := naive.Factor - correct.Factor; d < 0.001 {
		t.Fatalf("schemes should differ measurably; diff = %v", d)
	}
}

// Property: order of mild/harsh epochs matters less than total exposure —
// health after (hot, cool) and (cool, hot) must both be bounded by the
// all-hot and all-cool extremes.
func TestAdvanceOrderBoundedByExtremes(t *testing.T) {
	_, tab := testTable(t)
	run := func(seq [][2]float64) float64 {
		s := NewState()
		for _, cond := range seq {
			s.Advance(tab, cond[0], cond[1], 2.5)
		}
		return s.Factor
	}
	hotCool := run([][2]float64{{390, 0.9}, {310, 0.3}})
	coolHot := run([][2]float64{{310, 0.3}, {390, 0.9}})
	allHot := run([][2]float64{{390, 0.9}, {390, 0.9}})
	allCool := run([][2]float64{{310, 0.3}, {310, 0.3}})
	for name, v := range map[string]float64{"hotCool": hotCool, "coolHot": coolHot} {
		if v < allHot-1e-9 || v > allCool+1e-9 {
			t.Errorf("%s = %v outside [allHot=%v, allCool=%v]", name, v, allHot, allCool)
		}
	}
}

// TestFactorBoundCoversCurve checks the bound Hayat prunes candidates
// with: no AgeCurve.At read on a random non-negative table exceeds
// FactorBound, and a table with a negative entry is bounded by +Inf.
func TestFactorBoundCoversCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	axis := func(k int, lo, span float64) []float64 {
		a := make([]float64, k)
		x := lo
		for i := range a {
			a[i] = x
			x += span * (0.05 + rng.Float64())
		}
		return a
	}
	for trial := 0; trial < 200; trial++ {
		tab := &Table3D{
			Temps:  axis(2+rng.Intn(5), 290, 20),
			Duties: axis(2+rng.Intn(5), 0, 0.3),
			Years:  axis(2+rng.Intn(8), 0, 2),
		}
		tab.Factor = make([]float64, len(tab.Temps)*len(tab.Duties)*len(tab.Years))
		scale := math.Ldexp(1, rng.Intn(40)-20)
		for i := range tab.Factor {
			switch rng.Intn(4) {
			case 0: // the maximum recurs, so curves run along it
				tab.Factor[i] = scale
			default:
				tab.Factor[i] = scale * rng.Float64()
			}
		}
		u := tab.FactorBound()
		max := 0.0
		for _, f := range tab.Factor {
			max = math.Max(max, f)
		}
		if !(u >= max) || u > max*(1+2e-12) {
			t.Fatalf("trial %d: bound %v for largest entry %v", trial, u, max)
		}
		span := func(a []float64) float64 { return a[len(a)-1] - a[0] }
		for p := 0; p < 500; p++ {
			T := tab.Temps[0] + (1.2*rng.Float64()-0.1)*span(tab.Temps)
			d := tab.Duties[0] + (1.2*rng.Float64()-0.1)*span(tab.Duties)
			c := tab.Curve(T, d)
			y := tab.Years[0] + (1.2*rng.Float64()-0.1)*span(tab.Years)
			if f := c.At(y); f > u {
				t.Fatalf("trial %d: At(%v) at (%v, %v) = %v above bound %v", trial, y, T, d, f, u)
			}
		}
	}
	neg := &Table3D{Factor: []float64{0.5, -0.1}}
	if u := neg.FactorBound(); !math.IsInf(u, 1) {
		t.Fatalf("table with a negative entry bounded by %v, want +Inf", u)
	}
}
