// Package testutil builds fully wired chip contexts for the policy,
// simulation and benchmark tests. It lives in internal/ and must only be
// imported from _test.go files and bench harnesses.
package testutil

import (
	"testing"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/gates"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/variation"
	"github.com/kit-ces/hayat/internal/workload"
)

// Fixture bundles everything a policy or engine test needs for one chip.
type Fixture struct {
	FP        *floorplan.Floorplan
	Thermal   *thermal.Model
	Power     power.Model
	Chip      *variation.Chip
	Predictor *thermpredict.Predictor
	CoreAging *aging.CoreAging
	Table     *aging.Table3D
}

// NewFixture wires the default models for the given chip seed. Heavy
// shared pieces (thermal model, aging table) are rebuilt per call; tests
// that need many chips should reuse one fixture's Table and Thermal.
//
//lint:ignore reachability shared by the core, baseline, sim and persist tests and the root benchmarks
func NewFixture(t testing.TB, chipSeed int64) *Fixture {
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
	chip := gen.Chip(chipSeed)
	pm := power.DefaultModel()
	pred, err := thermpredict.Learn(tm, pm, chip)
	if err != nil {
		t.Fatal(err)
	}
	ca := aging.NewCoreAging(aging.DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), chipSeed))
	return &Fixture{
		FP: fp, Thermal: tm, Power: pm, Chip: chip, Predictor: pred,
		CoreAging: ca, Table: aging.DefaultTable(ca),
	}
}

// Context builds a fresh unaged policy context with the given dark-silicon
// fraction.
//
//lint:ignore reachability shared by the core, baseline, sim and persist tests and the root benchmarks
func (f *Fixture) Context(darkFraction float64) *policy.Context {
	n := f.FP.N()
	health := make([]aging.State, n)
	fmax := make([]float64, n)
	temps := make([]float64, n)
	for i := 0; i < n; i++ {
		health[i] = aging.NewState()
		fmax[i] = f.Chip.FMax0[i]
		temps[i] = f.Thermal.Ambient()
	}
	return &policy.Context{
		Chip:         f.Chip,
		Predictor:    f.Predictor,
		AgingTable:   f.Table,
		PowerModel:   f.Power,
		TSafe:        368.15,
		MaxOnCores:   floorplan.MaxOnCores(n, darkFraction),
		HorizonYears: 0.25,
		DutyMode:     policy.DutyKnown,
		Health:       health,
		FMax:         fmax,
		Temps:        temps,
	}
}

// Threads generates a deterministic workload mix and returns its threads.
//
//lint:ignore reachability shared by the core, baseline, sim and persist tests
func Threads(t testing.TB, seed int64, maxThreads, apps int) []*workload.Thread {
	t.Helper()
	mix, err := workload.GenerateMix(workload.MixConfig{MaxThreads: maxThreads, Apps: apps}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return mix.Threads(nil)
}
