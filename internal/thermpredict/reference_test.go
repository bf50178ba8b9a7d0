package thermpredict

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/variation"
)

// This file keeps Predict, DeltaPredict and Algorithm 1's admission loop
// as they were before the response was read through its transpose, the
// leakage reference term was hoisted and admission was fused into one
// pass, verbatim (the leakage law and the matrix–vector product inlined
// as they then were), as test references. The production code must match
// them bit for bit.

// refLeakageTempFactor and refCoreLeakage are power.Model's
// LeakageTempFactor and CoreLeakage, with two Exp per call.
func refLeakageTempFactor(m power.Model, T float64) float64 {
	if T <= 0 {
		return 0
	}
	vt := variation.BoltzmannOverQ * T
	vtRef := variation.BoltzmannOverQ * m.TRef
	return math.Exp(-m.VthNominal/(m.SubthresholdN*vt)) /
		math.Exp(-m.VthNominal/(m.SubthresholdN*vtRef))
}

func refCoreLeakage(m power.Model, leakFactor, T float64, on bool) float64 {
	if !on {
		return m.GatedLeakage
	}
	return m.NominalLeakage * leakFactor * refLeakageTempFactor(m, T)
}

// refPredict is Predict with LeakageIterations = 3 and the row-by-row
// MulVec.
func refPredict(p *Predictor, pm power.Model, pdyn []float64, on []bool) []float64 {
	n := p.resp.Rows
	dst, total := make([]float64, n), make([]float64, n)
	mulVec := func() {
		for i := 0; i < n; i++ {
			row := p.resp.Row(i)
			s := 0.0
			for j, v := range row {
				s += v * total[j]
			}
			dst[i] = s
		}
	}
	amb := p.tm.Ambient()
	for i := range total {
		total[i] = pdyn[i] + refCoreLeakage(pm, p.chip.LeakFactor[i], amb, on[i])
	}
	mulVec()
	for i := range dst {
		dst[i] += amb
	}
	for it := 0; it < 3; it++ {
		for i := range total {
			total[i] = pdyn[i] + refCoreLeakage(pm, p.chip.LeakFactor[i], dst[i], on[i])
		}
		mulVec()
		for i := range dst {
			dst[i] += amb
		}
	}
	return dst
}

// refDeltaPredict is DeltaPredict reading a column of the response.
func refDeltaPredict(p *Predictor, dst, base []float64, j int, addPower float64) []float64 {
	n := p.resp.Rows
	for i := 0; i < n; i++ {
		dst[i] = base[i] + p.resp.At(i, j)*addPower
	}
	return dst
}

// refCandidatePower is CandidatePower with the two-Exp leakage.
func refCandidatePower(p *Predictor, pm power.Model, j int, pdyn, T float64) float64 {
	return pdyn + refCoreLeakage(pm, p.chip.LeakFactor[j], T, true) - refCoreLeakage(pm, 0, T, false)
}

// refAdmit is Hayat.place's admission loop over refDeltaPredict's field.
func refAdmit(p *Predictor, tNext, base []float64, cand int, addPower, tSafe float64) (tCand, tMax float64, ok bool) {
	n := p.resp.Rows
	refDeltaPredict(p, tNext, base, cand, addPower)
	tMax = tNext[0]
	violates := false
	for i := 0; i < n; i++ {
		if tNext[i] > tMax {
			tMax = tNext[i]
		}
		if tNext[i] > tSafe {
			violates = true
			break
		}
	}
	return tNext[cand], tMax, !violates
}

// randomMapping draws a dynamic-power map with a random share of cores on.
func randomMapping(rng *rand.Rand, n int) (pdyn []float64, on []bool) {
	pdyn, on = make([]float64, n), make([]bool, n)
	share := rng.Float64()
	for i := range on {
		if rng.Float64() < share {
			on[i] = true
			pdyn[i] = 9 * rng.Float64()
		}
	}
	return pdyn, on
}

// TestPredictorMatchesReference compares Predict, DeltaPredict and
// CandidatePower with their references bitwise over random mappings, on
// the default 8×8 grid, on 16×16, where the response is not bitwise
// symmetric, so a transpose assumed instead of copied would show, and
// with the leakage reference temperature moved off ambient, where the
// default model's ambient leakage factor is exactly 1.
func TestPredictorMatchesReference(t *testing.T) {
	for _, fp := range []*floorplan.Floorplan{floorplan.Default(), floorplan.New(16, 16)} {
		checkPredictor(t, newGridFixture(t, fp), 20)
	}
	fx := newFixture(t)
	fx.pm.TRef = 330
	var err error
	if fx.pred, err = Learn(fx.tm, fx.pm, fx.chip); err != nil {
		t.Fatal(err)
	}
	checkPredictor(t, fx, 20)
}

func checkPredictor(t *testing.T, fx *fixture, trials int) {
	t.Helper()
	n := fx.fp.N()
	// Predict's later sweeps contract an ulp in its first one away, so
	// the hoisted ambient leakage is compared on its own.
	for i, got := range fx.pred.leakAmb {
		if want := refCoreLeakage(fx.pm, fx.chip.LeakFactor[i], fx.tm.Ambient(), true); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("core %d: ambient leakage %v, reference %v", i, got, want)
		}
	}
	rng := rand.New(rand.NewSource(25))
	want := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		pdyn, on := randomMapping(rng, n)
		base := fx.pred.Predict(nil, nil, pdyn, on)
		if i := firstBitDiff(base, refPredict(fx.pred, fx.pm, pdyn, on)); i >= 0 {
			t.Fatalf("trial %d: Predict differs from the reference at core %d", trial, i)
		}
		for j := 0; j < n; j++ {
			pd := 9 * rng.Float64()
			got := fx.pred.CandidatePower(j, pd, base[j])
			if w := refCandidatePower(fx.pred, fx.pm, j, pd, base[j]); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("trial %d: CandidatePower(%d) = %v, reference %v", trial, j, got, w)
			}
			gotField := fx.pred.DeltaPredict(nil, base, j, got)
			refDeltaPredict(fx.pred, want, base, j, got)
			if i := firstBitDiff(gotField, want); i >= 0 {
				t.Fatalf("trial %d: DeltaPredict(%d) differs from the reference at core %d", trial, j, i)
			}
		}
	}
}

// TestAdmitMatchesReference compares the fused admission with the
// DeltaPredict-plus-loop reference bitwise: the verdict for every
// candidate and, for admitted ones, the candidate's own temperature and
// the peak. T_safe sweeps the quantiles of each field's candidate peaks,
// so both verdicts occur in quantity. Each field is also shifted below
// zero, where a peak seeded at zero instead of at core 0 would show.
func TestAdmitMatchesReference(t *testing.T) {
	fx := newFixture(t)
	n := fx.fp.N()
	rng := rand.New(rand.NewSource(26))
	tNext := make([]float64, n)
	peaks := make([]float64, 0, n)
	admitted, rejected := 0, 0
	for trial := 0; trial < 30; trial++ {
		pdyn, on := randomMapping(rng, n)
		base := fx.pred.Predict(nil, nil, pdyn, on)
		add := make([]float64, n)
		peaks = peaks[:0]
		for j := range add {
			add[j] = fx.pred.CandidatePower(j, 9*rng.Float64(), base[j])
			_, peak, _ := refAdmit(fx.pred, tNext, base, j, add[j], math.Inf(1))
			peaks = append(peaks, peak)
		}
		neg := make([]float64, n)
		for k := range neg {
			neg[k] = base[k] - 1000
		}
		for j := 0; j < n; j++ {
			wantT, wantPeak, _ := refAdmit(fx.pred, tNext, neg, j, add[j], math.Inf(1))
			gotT, gotPeak, _ := fx.pred.Admit(neg, j, add[j], math.Inf(1))
			if math.Float64bits(gotT) != math.Float64bits(wantT) || math.Float64bits(gotPeak) != math.Float64bits(wantPeak) {
				t.Fatalf("trial %d core %d below zero: (T, peak) = (%v, %v), reference (%v, %v)", trial, j, gotT, gotPeak, wantT, wantPeak)
			}
		}
		sort.Float64s(peaks)
		for _, tSafe := range []float64{peaks[0] - 1, peaks[n/4], peaks[n/2], peaks[3*n/4], peaks[n-1], math.Inf(1)} {
			for j := 0; j < n; j++ {
				wantT, wantPeak, wantOK := refAdmit(fx.pred, tNext, base, j, add[j], tSafe)
				gotT, gotPeak, gotOK := fx.pred.Admit(base, j, add[j], tSafe)
				if gotOK != wantOK {
					t.Fatalf("trial %d T_safe %v core %d: admitted %v, reference %v", trial, tSafe, j, gotOK, wantOK)
				}
				if !wantOK {
					rejected++
					continue
				}
				admitted++
				if math.Float64bits(gotT) != math.Float64bits(wantT) || math.Float64bits(gotPeak) != math.Float64bits(wantPeak) {
					t.Fatalf("trial %d T_safe %v core %d: (T, peak) = (%v, %v), reference (%v, %v)",
						trial, tSafe, j, gotT, gotPeak, wantT, wantPeak)
				}
			}
		}
	}
	if admitted < 1000 || rejected < 1000 {
		t.Fatalf("%d admitted and %d rejected candidates; want both verdicts in quantity", admitted, rejected)
	}
}

// TestAdmitReadsTheCopiedTranspose compares the fused admission with its
// reference on synthetic fields over the 16×16 grid, whose response is
// not bitwise symmetric: for every entry R[i][j] ≠ R[j][i], core i alone
// sits at 0 K and every other core far below, so candidate j's peak is
// R[i][j]·addPower exactly. A peak read from R's row j, or one seeded at
// zero rather than from core 0, would differ.
func TestAdmitReadsTheCopiedTranspose(t *testing.T) {
	fx := newGridFixture(t, floorplan.New(16, 16))
	n := fx.fp.N()
	base, tNext := make([]float64, n), make([]float64, n)
	asym := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if fx.pred.ResponseAt(i, j) == fx.pred.ResponseAt(j, i) {
				continue
			}
			asym++
			for k := range base {
				base[k] = -1e6
			}
			base[i] = 0
			wantT, wantPeak, wantOK := refAdmit(fx.pred, tNext, base, j, 7, math.Inf(1))
			gotT, gotPeak, gotOK := fx.pred.Admit(base, j, 7, math.Inf(1))
			if gotOK != wantOK || math.Float64bits(gotT) != math.Float64bits(wantT) || math.Float64bits(gotPeak) != math.Float64bits(wantPeak) {
				t.Fatalf("R[%d][%d]: (T, peak, ok) = (%v, %v, %v), reference (%v, %v, %v)",
					i, j, gotT, gotPeak, gotOK, wantT, wantPeak, wantOK)
			}
		}
	}
	if asym == 0 {
		t.Fatal("the 16×16 response is bitwise symmetric; the test needs a grid where it is not")
	}
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
