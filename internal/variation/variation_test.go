package variation

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/numeric"
)

func mustGen(t *testing.T) *Generator {
	t.Helper()
	g, err := NewGenerator(DefaultModel(), floorplan.Default())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeneratorValidation(t *testing.T) {
	fp := floorplan.Default()
	bad := []Model{
		func() Model { m := DefaultModel(); m.GridPerCore = 0; return m }(),
		func() Model { m := DefaultModel(); m.Sigma = -1; return m }(),
		func() Model { m := DefaultModel(); m.CorrLength = 0; return m }(),
		func() Model { m := DefaultModel(); m.NominalFreq = 0; return m }(),
	}
	for i, m := range bad {
		if _, err := NewGenerator(m, fp); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestChipDeterministic(t *testing.T) {
	g := mustGen(t)
	a := g.Chip(42)
	b := g.Chip(42)
	for i := range a.FMax0 {
		if a.FMax0[i] != b.FMax0[i] || a.LeakFactor[i] != b.LeakFactor[i] {
			t.Fatalf("same seed produced different chips at core %d", i)
		}
	}
	c := g.Chip(43)
	same := true
	for i := range a.FMax0 {
		if a.FMax0[i] != c.FMax0[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical chips")
	}
}

func TestGridShape(t *testing.T) {
	g := mustGen(t)
	r, c := g.GridShape()
	if r != 16 || c != 16 {
		t.Fatalf("grid = %d×%d, want 16×16 (8×8 cores × 2)", r, c)
	}
	chip := g.Chip(1)
	if len(chip.Theta) != 256 {
		t.Fatalf("len(Theta) = %d", len(chip.Theta))
	}
}

// E11: the paper reports ~30–35 % core-to-core frequency variation at
// 1.13 V, 3–4 GHz. Check the population-average spread lands in a band
// around that (25–40 % leaves room for sampling noise while still pinning
// the calibration).
func TestFrequencySpreadMatchesPaper(t *testing.T) {
	g := mustGen(t)
	chips := g.Population(1000, 25)
	sum := 0.0
	for _, c := range chips {
		sum += c.FrequencySpread()
	}
	avg := sum / float64(len(chips))
	if avg < 0.25 || avg > 0.40 {
		t.Fatalf("population-average frequency spread = %.3f, want ≈0.30–0.35 (band 0.25–0.40)", avg)
	}
}

func TestFrequenciesInPlausibleBand(t *testing.T) {
	g := mustGen(t)
	chip := g.Chip(7)
	for i, f := range chip.FMax0 {
		// Fig. 2(o) shows per-core initial frequencies roughly 2.5–4 GHz.
		if f < 1.8e9 || f > 4.5e9 {
			t.Fatalf("core %d FMax0 = %.3g Hz outside plausible band", i, f)
		}
	}
}

func TestLeakageAnticorrelatedWithTheta(t *testing.T) {
	g := mustGen(t)
	chip := g.Chip(11)
	// Cores with lower mean ϑ (lower Vth) must leak more: Pearson
	// correlation between MeanTheta and LeakFactor should be strongly
	// negative.
	mt, lf := chip.MeanTheta, chip.LeakFactor
	mm, ml := numeric.Mean(mt), numeric.Mean(lf)
	var num, da, db float64
	for i := range mt {
		num += (mt[i] - mm) * (lf[i] - ml)
		da += (mt[i] - mm) * (mt[i] - mm)
		db += (lf[i] - ml) * (lf[i] - ml)
	}
	r := num / math.Sqrt(da*db)
	if r > -0.8 {
		t.Fatalf("corr(ϑ, leak) = %.3f, want strongly negative", r)
	}
}

func TestLeakFactorNearUnityMean(t *testing.T) {
	g := mustGen(t)
	chips := g.Population(50, 10)
	sum := 0.0
	n := 0
	for _, c := range chips {
		for _, lf := range c.LeakFactor {
			sum += lf
			n++
		}
	}
	avg := sum / float64(n)
	// exp of a Gaussian has mean e^(σ²/2) > 1; just require same order.
	if avg < 0.5 || avg > 3.0 {
		t.Fatalf("mean leak factor = %v, want O(1)", avg)
	}
}

func TestSpatialCorrelationDecays(t *testing.T) {
	g := mustGen(t)
	// Estimate correlation of ϑ between adjacent vs distant grid points
	// over many chips; adjacent must correlate more.
	const chips = 200
	rows, cols := g.GridShape()
	i0 := 0
	iAdj := 1                          // neighbouring column
	iFar := (rows-1)*cols + (cols - 1) // opposite corner
	var s0, sAdj, sFar, s00, sAA, sFF, m0, mA, mF float64
	th0 := make([]float64, chips)
	thA := make([]float64, chips)
	thF := make([]float64, chips)
	for k := 0; k < chips; k++ {
		c := g.Chip(int64(9000 + k))
		th0[k], thA[k], thF[k] = c.Theta[i0], c.Theta[iAdj], c.Theta[iFar]
	}
	m0, mA, mF = numeric.Mean(th0), numeric.Mean(thA), numeric.Mean(thF)
	for k := 0; k < chips; k++ {
		s0 += (th0[k] - m0) * (thA[k] - mA)
		sFar += (th0[k] - m0) * (thF[k] - mF)
		s00 += (th0[k] - m0) * (th0[k] - m0)
		sAA += (thA[k] - mA) * (thA[k] - mA)
		sFF += (thF[k] - mF) * (thF[k] - mF)
	}
	sAdj = s0 / math.Sqrt(s00*sAA)
	far := sFar / math.Sqrt(s00*sFF)
	if sAdj < 0.5 {
		t.Fatalf("adjacent correlation = %.3f, want > 0.5", sAdj)
	}
	if far >= sAdj {
		t.Fatalf("correlation does not decay: adjacent %.3f vs far %.3f", sAdj, far)
	}
}

func TestFastestCoresSorted(t *testing.T) {
	g := mustGen(t)
	chip := g.Chip(3)
	order := chip.FastestCores()
	if len(order) != 64 {
		t.Fatalf("len = %d", len(order))
	}
	seen := make(map[int]bool)
	for i := 1; i < len(order); i++ {
		if chip.FMax0[order[i]] > chip.FMax0[order[i-1]] {
			t.Fatalf("not sorted at %d", i)
		}
	}
	for _, i := range order {
		if seen[i] {
			t.Fatalf("duplicate core %d", i)
		}
		seen[i] = true
	}
}

func TestPopulationSeeds(t *testing.T) {
	g := mustGen(t)
	pop := g.Population(100, 3)
	if len(pop) != 3 {
		t.Fatalf("len = %d", len(pop))
	}
	for i, c := range pop {
		if c.Seed != int64(100+i) {
			t.Fatalf("chip %d seed = %d", i, c.Seed)
		}
	}
}

// Property: FMax0 can never exceed α·μ/min(ϑ) bound and is positive.
func TestFMaxBoundsProperty(t *testing.T) {
	g := mustGen(t)
	f := func(seed int64) bool {
		c := g.Chip(seed)
		for _, fm := range c.FMax0 {
			if fm <= 0 || math.IsNaN(fm) || math.IsInf(fm, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: zero sigma gives a perfectly uniform chip at nominal frequency.
func TestZeroSigmaUniformChip(t *testing.T) {
	m := DefaultModel()
	m.Sigma = 0
	g, err := NewGenerator(m, floorplan.Default())
	if err != nil {
		t.Fatal(err)
	}
	c := g.Chip(5)
	for i, f := range c.FMax0 {
		if math.Abs(f-m.NominalFreq) > 1e6 { // 0.03 % tolerance for jitter
			t.Fatalf("core %d freq %v, want %v", i, f, m.NominalFreq)
		}
		if math.Abs(c.LeakFactor[i]-1) > 0.01 {
			t.Fatalf("core %d leak factor %v, want ≈1", i, c.LeakFactor[i])
		}
	}
	if c.FrequencySpread() > 1e-3 {
		t.Fatalf("spread = %v, want ≈0", c.FrequencySpread())
	}
}

// GridShape returns the lattice dimensions.
func (g *Generator) GridShape() (rows, cols int) { return g.gridRows, g.gridCols }

// FastestCores returns the core indices sorted by descending FMax0.
func (c *Chip) FastestCores() []int {
	idx := make([]int, len(c.FMax0))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort: N = 64, called rarely.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && c.FMax0[idx[j]] > c.FMax0[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}
