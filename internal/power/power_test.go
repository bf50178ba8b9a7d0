package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []func(*Model){
		func(m *Model) { m.NominalLeakage = -1 },
		func(m *Model) { m.GatedLeakage = -1 },
		func(m *Model) { m.NominalFreq = 0 },
		func(m *Model) { m.TRef = 0 },
		func(m *Model) { m.SubthresholdN = 0 },
		func(m *Model) { m.MaxDynamicPower = -0.5 },
	}
	for i, mut := range cases {
		m := DefaultModel()
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestLeakageTempFactorAnchors(t *testing.T) {
	m := DefaultModel()
	l := m.Leakage()
	if f := l.TempFactor(m.TRef); math.Abs(f-1) > 1e-12 {
		t.Fatalf("factor at TRef = %v, want 1", f)
	}
	// 45 °C → 95 °C should raise leakage substantially (roughly 2–3×).
	f95 := l.TempFactor(368.15)
	if f95 < 1.8 || f95 > 4.0 {
		t.Fatalf("factor at 95 °C = %v, want ≈2–3", f95)
	}
	if l.TempFactor(0) != 0 {
		t.Fatal("non-positive temperature should give 0")
	}
}

func TestLeakageTempFactorMonotone(t *testing.T) {
	l := DefaultModel().Leakage()
	prev := 0.0
	for T := 300.0; T <= 420; T += 5 {
		f := l.TempFactor(T)
		if f <= prev {
			t.Fatalf("leakage factor not increasing at T=%v", T)
		}
		prev = f
	}
}

func TestCoreLeakage(t *testing.T) {
	m := DefaultModel()
	l := m.Leakage()
	if got := l.Core(1.0, m.TRef, true); math.Abs(got-1.18) > 1e-9 {
		t.Fatalf("nominal core leakage = %v, want 1.18", got)
	}
	if got := l.Core(2.0, m.TRef, true); math.Abs(got-2.36) > 1e-9 {
		t.Fatalf("leaky core = %v, want 2.36", got)
	}
	if got := l.Core(5.0, 400, false); got != 0.019 {
		t.Fatalf("dark core leakage = %v, want 0.019 regardless of factor/T", got)
	}
}

func TestDynamicPower(t *testing.T) {
	m := DefaultModel()
	if got := m.DynamicPower(m.NominalFreq, 1.0); math.Abs(got-m.MaxDynamicPower) > 1e-12 {
		t.Fatalf("full-speed dynamic = %v, want %v", got, m.MaxDynamicPower)
	}
	if got := m.DynamicPower(m.NominalFreq/2, 0.5); math.Abs(got-m.MaxDynamicPower/4) > 1e-12 {
		t.Fatalf("half-speed half-activity = %v", got)
	}
	if m.DynamicPower(-1, 0.5) != 0 {
		t.Fatal("negative frequency must clamp to zero power")
	}
	if got := m.DynamicPower(m.NominalFreq, 2.0); math.Abs(got-m.MaxDynamicPower) > 1e-12 {
		t.Fatal("activity must clamp to 1")
	}
}

func TestCorePowerDarkIgnoresActivity(t *testing.T) {
	m := DefaultModel()
	if got := m.CorePower(9e9, 1, 3, 400, false); got != m.GatedLeakage {
		t.Fatalf("dark core power = %v, want %v", got, m.GatedLeakage)
	}
	on := m.CorePower(m.NominalFreq, 1, 1, m.TRef, true)
	want := m.MaxDynamicPower + m.NominalLeakage
	if math.Abs(on-want) > 1e-9 {
		t.Fatalf("on-core power = %v, want %v", on, want)
	}
}

func TestChipPowerPaperScale(t *testing.T) {
	m := DefaultModel()
	// 32 cores at full tilt + 32 dark: a paper-scale manycore budget.
	n := 64
	freqs := make([]float64, n)
	act := make([]float64, n)
	leak := make([]float64, n)
	temps := make([]float64, n)
	on := make([]bool, n)
	for i := 0; i < n; i++ {
		freqs[i], act[i], leak[i], temps[i] = m.NominalFreq, 1, 1, m.TRef
		on[i] = i < 32
	}
	total := m.ChipPower(freqs, act, leak, temps, on)
	want := 32*(m.MaxDynamicPower+m.NominalLeakage) + 32*m.GatedLeakage
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("chip power = %v, want %v", total, want)
	}
	if total < 150 || total > 400 {
		t.Fatalf("chip power %v W outside paper-plausible band", total)
	}
}

// Property: total power is monotone in frequency, activity and temperature
// for powered-on cores.
func TestCorePowerMonotoneProperty(t *testing.T) {
	m := DefaultModel()
	f := func(rawF, rawA, rawT uint16) bool {
		freq := float64(rawF%40) * 1e8 // 0–4 GHz
		a := float64(rawA%100) / 100   // 0–1
		T := 300 + float64(rawT%120)   // 300–420 K
		base := m.CorePower(freq, a, 1, T, true)
		return m.CorePower(freq+1e8, a, 1, T, true) >= base &&
			m.CorePower(freq, math.Min(a+0.1, 1), 1, T, true) >= base &&
			m.CorePower(freq, a, 1, T+5, true) > base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// CorePower returns the total power of one core: dynamic (zero when idle
// or dark) plus leakage. A dark core ignores f/activity.
func (m Model) CorePower(f, activity, leakFactor, T float64, on bool) float64 {
	if !on {
		return m.GatedLeakage
	}
	l := m.Leakage()
	return m.DynamicPower(f, activity) + l.Core(leakFactor, T, true)
}

// ChipPower sums CorePower over all cores. freqs, activities and
// leakFactors are per-core (a dark core's entries are ignored), temps is
// the per-core temperature vector and on the power-state map.
func (m Model) ChipPower(freqs, activities, leakFactors, temps []float64, on []bool) float64 {
	total := 0.0
	for i := range on {
		total += m.CorePower(freqs[i], activities[i], leakFactors[i], temps[i], on[i])
	}
	return total
}
