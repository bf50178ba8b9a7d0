package aging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/kit-ces/hayat/internal/gates"
)

func testCore() *CoreAging {
	return NewCoreAging(DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), 1))
}

func TestDeltaVthZeroCases(t *testing.T) {
	p := DefaultParams()
	if p.DeltaVth(350, 0, 0.5) != 0 {
		t.Error("zero years must give zero shift")
	}
	if p.DeltaVth(350, 5, 0) != 0 {
		t.Error("zero duty must give zero shift")
	}
	if p.DeltaVth(0, 5, 0.5) != 0 {
		t.Error("non-positive temperature must give zero shift")
	}
	if p.DeltaVth(350, -1, 0.5) != 0 || p.DeltaVth(350, 5, -0.2) != 0 {
		t.Error("negative stress inputs must give zero shift")
	}
}

func TestDeltaVthDutyClamped(t *testing.T) {
	p := DefaultParams()
	if p.DeltaVth(350, 5, 1.5) != p.DeltaVth(350, 5, 1.0) {
		t.Error("duty above 1 must clamp to 1")
	}
}

func TestDeltaVthMonotonicity(t *testing.T) {
	p := DefaultParams()
	base := p.DeltaVth(350, 5, 0.5)
	if p.DeltaVth(360, 5, 0.5) <= base {
		t.Error("ΔVth must increase with temperature")
	}
	if p.DeltaVth(350, 6, 0.5) <= base {
		t.Error("ΔVth must increase with age")
	}
	if p.DeltaVth(350, 5, 0.6) <= base {
		t.Error("ΔVth must increase with duty")
	}
}

func TestDeltaVthScalingLaws(t *testing.T) {
	p := DefaultParams()
	// y^(1/6): aging 64× longer doubles the shift.
	r := p.DeltaVth(350, 6.4, 0.5) / p.DeltaVth(350, 0.1, 0.5)
	if math.Abs(r-2) > 1e-9 {
		t.Errorf("64× age ratio = %v, want 2 (y^1/6)", r)
	}
	// d^(1/6) likewise.
	r = p.DeltaVth(350, 5, 0.64) / p.DeltaVth(350, 5, 0.01)
	if math.Abs(r-2) > 1e-9 {
		t.Errorf("64× duty ratio = %v, want 2 (d^1/6)", r)
	}
	// Vdd⁴ scaling.
	p2 := p
	p2.Vdd = 2 * p.Vdd
	r = p2.DeltaVth(350, 5, 0.5) / p.DeltaVth(350, 5, 0.5)
	if math.Abs(r-16) > 1e-9 {
		t.Errorf("2× Vdd ratio = %v, want 16", r)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	for i, p := range []Params{
		{Prefactor: -1, ActivationTemp: 1500, Vdd: 1, TimeExp: 0.1},
		{Prefactor: 1, ActivationTemp: 0, Vdd: 1, TimeExp: 0.1},
		{Prefactor: 1, ActivationTemp: 1500, Vdd: 0, TimeExp: 0.1},
		{Prefactor: 1, ActivationTemp: 1500, Vdd: 1, TimeExp: 0},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestAgedDelayNeverBelowUnaged(t *testing.T) {
	ca := testCore()
	for _, T := range []float64{298, 350, 413} {
		for _, y := range []float64{0, 1, 5, 10} {
			if ca.AgedDelay(T, 0.8, y) < ca.UnagedDelay()-1e-18 {
				t.Fatalf("aged delay below unaged at T=%v y=%v", T, y)
			}
		}
	}
}

func TestFreqFactorBounds(t *testing.T) {
	ca := testCore()
	f0 := ca.FreqFactor(350, 0.8, 0)
	if math.Abs(f0-1) > 1e-12 {
		t.Fatalf("factor at year 0 = %v, want 1", f0)
	}
	f10 := ca.FreqFactor(350, 0.8, 10)
	if f10 <= 0 || f10 >= 1 {
		t.Fatalf("factor at year 10 = %v, want in (0,1)", f10)
	}
}

// E1 calibration: Fig. 1(b) shows delay increases after 10 years of
// roughly 1.05–1.1× at 25 °C up to ≈1.4× at 140 °C. Pin the model to those
// bands (full stress, duty 1).
func TestFig1bDelayBands(t *testing.T) {
	ca := testCore()
	cases := []struct {
		tempC    float64
		min, max float64
	}{
		{25, 1.02, 1.12},
		{75, 1.10, 1.25},
		{100, 1.15, 1.33},
		{140, 1.24, 1.48},
	}
	prev := 1.0
	for _, c := range cases {
		f := ca.DelayIncreaseFactor(c.tempC+273.15, 1.0, 10)
		if f < c.min || f > c.max {
			t.Errorf("delay increase @%v°C = %.3f, want [%.2f, %.2f]", c.tempC, f, c.min, c.max)
		}
		if f <= prev {
			t.Errorf("delay increase not monotone in temperature at %v°C", c.tempC)
		}
		prev = f
	}
}

// Fig. 2(o) magnitude check: at typical operating temperatures (~331 K) and
// moderate duty, 10-year frequency degradation should land in the paper's
// 10–20 % band.
func TestFig2oDegradationBand(t *testing.T) {
	ca := testCore()
	f := ca.FreqFactor(331, 0.6, 10)
	if f < 0.78 || f > 0.93 {
		t.Fatalf("10-year health at 331 K = %.3f, want ≈0.83–0.90 (band 0.78–0.93)", f)
	}
}

func TestNewCoreAgingPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCoreAging(DefaultParams(), &gates.PathSet{})
}

// Property: FreqFactor is non-increasing in each of T, d, y.
func TestFreqFactorMonotoneProperty(t *testing.T) {
	ca := testCore()
	f := func(rawT, rawD, rawY uint16) bool {
		T := 298 + float64(rawT%120)
		d := float64(rawD%100) / 100
		y := float64(rawY%120) / 10
		base := ca.FreqFactor(T, d, y)
		return ca.FreqFactor(T+5, d, y) <= base+1e-12 &&
			ca.FreqFactor(T, math.Min(d+0.05, 1), y) <= base+1e-12 &&
			ca.FreqFactor(T, d, y+0.5) <= base+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The table fill's path bound (DESIGN.md §20) factors each stressed
// element's duty term, (d·DutyFactor·PMOSDutyWeight)^e, into d^e times
// (DutyFactor·PMOSDutyWeight)^e, and its margin allows the two to differ
// by a relative 2^-38 once math.Pow and both roundings of each product
// are counted. This checks that allowance over the proven input range:
// duty points, factors and weights in [2^-64, 2^64] with an effective
// duty of at most 1, and exponents in [0, boundMaxExp].
func TestFactoredDutyTermWithinBoundMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	scaled := func() float64 { return math.Ldexp(1+rng.Float64(), rng.Intn(128)-64) }
	worst := 0.0
	for i := 0; i < 200000; i++ {
		d, df, w := scaled(), scaled(), scaled()
		if i%2 == 0 { // the realistic range: all three in (0, 1]
			d, df, w = rng.Float64(), rng.Float64(), rng.Float64()
		}
		effDuty := d * df * w
		if !(effDuty > 0 && effDuty <= 1 && inBoundRange(d) && inBoundRange(df) && inBoundRange(w)) {
			continue
		}
		exp := []float64{0, 1.0 / 6, 0.25, 1, boundMaxExp, boundMaxExp * rng.Float64()}[i%6]
		exact := math.Pow(effDuty, exp)
		factored := math.Pow(d, exp) * math.Pow(df*w, exp)
		if rel := math.Abs(factored/exact - 1); rel > worst {
			worst = rel
		}
	}
	if worst > 0x1p-38 {
		t.Fatalf("factored duty term differs from the exact one by a relative %g, above the 2^-38 the bound allows", worst)
	}
	t.Logf("largest relative difference %g (2^%.1f)", worst, math.Log2(worst))
}
