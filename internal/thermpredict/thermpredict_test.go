package thermpredict

import (
	"math"
	"math/rand"
	"testing"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/variation"
)

type fixture struct {
	fp   *floorplan.Floorplan
	tm   *thermal.Model
	pm   power.Model
	chip *variation.Chip
	pred *Predictor
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fp := floorplan.Default()
	tm, err := thermal.New(fp, thermal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := variation.NewGenerator(variation.DefaultModel(), fp)
	if err != nil {
		t.Fatal(err)
	}
	chip := gen.Chip(1)
	pm := power.DefaultModel()
	pred, err := Learn(tm, pm, chip)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{fp: fp, tm: tm, pm: pm, chip: chip, pred: pred}
}

func TestLearnValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := Learn(nil, fx.pm, fx.chip); err == nil {
		t.Error("expected error for nil model")
	}
	if _, err := Learn(fx.tm, fx.pm, nil); err == nil {
		t.Error("expected error for nil chip")
	}
	bad := fx.pm
	bad.NominalFreq = 0
	if _, err := Learn(fx.tm, bad, fx.chip); err == nil {
		t.Error("expected error for invalid power model")
	}
	// Chip/floorplan mismatch.
	small := floorplan.New(2, 2)
	gen, err := variation.NewGenerator(variation.DefaultModel(), small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Learn(fx.tm, fx.pm, gen.Chip(1)); err == nil {
		t.Error("expected error for chip/floorplan core-count mismatch")
	}
}

func TestResponseProperties(t *testing.T) {
	fx := newFixture(t)
	n := fx.fp.N()
	for j := 0; j < n; j += 13 {
		for i := 0; i < n; i += 7 {
			r := fx.pred.ResponseAt(i, j)
			if r <= 0 {
				t.Fatalf("response (%d,%d) = %v, want positive", i, j, r)
			}
			// Self-response dominates cross-response.
			if i != j && r >= fx.pred.ResponseAt(j, j) {
				t.Fatalf("cross response (%d,%d)=%v ≥ self response", i, j, r)
			}
		}
	}
	// Reciprocity: the RC network is symmetric, so R must be too.
	for k := 0; k < 50; k++ {
		i, j := (k*17)%n, (k*29)%n
		if d := math.Abs(fx.pred.ResponseAt(i, j) - fx.pred.ResponseAt(j, i)); d > 1e-9 {
			t.Fatalf("response not reciprocal at (%d,%d): diff %v", i, j, d)
		}
	}
}

func TestPredictMatchesThermalModelWithLeakageLoop(t *testing.T) {
	fx := newFixture(t)
	n := fx.fp.N()
	rng := rand.New(rand.NewSource(2))
	pdyn := make([]float64, n)
	on := make([]bool, n)
	for i := range pdyn {
		on[i] = rng.Intn(2) == 0
		if on[i] {
			pdyn[i] = 1 + 4*rng.Float64()
		}
	}
	pred := fx.pred.Predict(nil, nil, pdyn, on)

	// Reference: iterate the exact thermal model with the same leakage
	// law to a fixed point.
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = fx.tm.Ambient()
	}
	total := make([]float64, n)
	for it := 0; it < 20; it++ {
		for i := range total {
			total[i] = pdyn[i] + fx.pm.CoreLeakage(fx.chip.LeakFactor[i], ref[i], on[i])
		}
		ref = fx.tm.SteadyState(total, nil)
	}
	for i := range pred {
		if math.Abs(pred[i]-ref[i]) > 0.5 {
			t.Fatalf("core %d predicted %v vs reference %v", i, pred[i], ref[i])
		}
	}
}

func TestPredictHotterWithMorePower(t *testing.T) {
	fx := newFixture(t)
	n := fx.fp.N()
	on := make([]bool, n)
	for i := range on {
		on[i] = true
	}
	low := fx.pred.Predict(nil, nil, make([]float64, n), on)
	hi := make([]float64, n)
	for i := range hi {
		hi[i] = 5
	}
	high := fx.pred.Predict(nil, nil, hi, on)
	for i := range low {
		if high[i] <= low[i] {
			t.Fatalf("core %d not hotter under load: %v vs %v", i, high[i], low[i])
		}
	}
}

func TestDeltaPredictConsistentWithFullPredict(t *testing.T) {
	fx := newFixture(t)
	n := fx.fp.N()
	on := make([]bool, n)
	pdyn := make([]float64, n)
	for i := 0; i < n; i += 2 {
		on[i] = true
		pdyn[i] = 3
	}
	base := fx.pred.Predict(nil, nil, pdyn, on)
	// Wake dark core 27 with a 4 W thread via the delta path, accounting
	// for the gated→on leakage change at the base temperature...
	cand := 27
	addPower := fx.pred.CandidatePower(cand, 4, base[cand])
	delta := fx.pred.DeltaPredict(nil, base, cand, addPower)
	// ...and via a full re-prediction.
	pdyn2 := append([]float64(nil), pdyn...)
	pdyn2[cand] += 4
	on2 := append([]bool(nil), on...)
	on2[cand] = true
	full := fx.pred.Predict(nil, nil, pdyn2, on2)
	for i := range delta {
		// The delta path skips the leakage re-correction sweep, so it
		// underestimates by the secondary leakage amplification — bounded
		// by a couple of Kelvin even when waking a worst-case leaky core.
		if math.Abs(delta[i]-full[i]) > 2.0 {
			t.Fatalf("core %d delta %v vs full %v", i, delta[i], full[i])
		}
	}
	// Candidate core itself must heat the most.
	rise := delta[cand] - base[cand]
	for i := range delta {
		if i != cand && delta[i]-base[i] > rise {
			t.Fatalf("core %d rose more than the candidate", i)
		}
	}
}

func TestDeltaPredictAliasing(t *testing.T) {
	fx := newFixture(t)
	n := fx.fp.N()
	base := make([]float64, n)
	for i := range base {
		base[i] = 320
	}
	want := fx.pred.DeltaPredict(nil, base, 5, 2)
	got := append([]float64(nil), base...)
	fx.pred.DeltaPredict(got, got, 5, 2)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("aliased delta differs at %d", i)
		}
	}
}

func TestAffectedCoresPruning(t *testing.T) {
	fx := newFixture(t)
	// With a tiny threshold everything is affected; with a huge one,
	// nothing.
	all := fx.pred.AffectedCores(nil, 20, 5, 1e-9)
	if len(all) != fx.fp.N() {
		t.Fatalf("tiny threshold: %d cores, want all", len(all))
	}
	none := fx.pred.AffectedCores(nil, 20, 5, 1e9)
	if len(none) != 0 {
		t.Fatalf("huge threshold: %d cores, want none", len(none))
	}
	// A moderate threshold keeps the candidate and nearby cores only.
	some := fx.pred.AffectedCores(nil, 20, 5, 0.5)
	if len(some) == 0 || len(some) == fx.fp.N() {
		t.Fatalf("moderate threshold kept %d cores", len(some))
	}
	found := false
	for _, c := range some {
		if c == 20 {
			found = true
		}
	}
	if !found {
		t.Fatal("candidate core not in its own affected set")
	}
}

func TestPredictLeakageCorrectionMatters(t *testing.T) {
	fx := newFixture(t)
	n := fx.fp.N()
	pdyn := make([]float64, n)
	on := make([]bool, n)
	for i := range pdyn {
		pdyn[i] = 5
		on[i] = true
	}
	corrected := fx.pred.Predict(nil, nil, pdyn, on)
	// Toggle the iteration count in place: Predictor now embeds a
	// sync.Pool, so the value must not be copied.
	saved := fx.pred.LeakageIterations
	fx.pred.LeakageIterations = 0
	uncorrected := fx.pred.Predict(nil, nil, pdyn, on)
	fx.pred.LeakageIterations = saved
	// The correction must raise temperatures (leakage grows with T).
	hotter := 0
	for i := range corrected {
		if corrected[i] > uncorrected[i]+0.01 {
			hotter++
		}
	}
	if hotter < n/2 {
		t.Fatalf("leakage correction raised only %d/%d cores", hotter, n)
	}
}
