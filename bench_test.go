// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index) plus ablations of
// the design choices DESIGN.md §5 calls out.
//
// Population benchmarks run reduced campaigns (2 chips, 2–3 years) so the
// whole suite stays tractable; cmd/experiments runs the full 25-chip,
// 10-year campaign. Shape metrics (Hayat/VAA ratios) are attached to the
// benchmark output via ReportMetric.
package hayat_test

import (
	"sync"
	"testing"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/baseline"
	"github.com/kit-ces/hayat/internal/core"
	"github.com/kit-ces/hayat/internal/experiments"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/gates"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/sim"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/workload"
)

var (
	platformOnce sync.Once
	platform     *experiments.Platform
	benchKits    []*experiments.ChipKit
)

func benchPlatform(b *testing.B) (*experiments.Platform, []*experiments.ChipKit) {
	b.Helper()
	platformOnce.Do(func() {
		p, err := experiments.NewPlatform()
		if err != nil {
			panic(err)
		}
		kits, err := p.Kits(1, 2)
		if err != nil {
			panic(err)
		}
		platform, benchKits = p, kits
	})
	return platform, benchKits
}

// E1 — Fig. 1(b): delay increase vs years for the temperature family.
func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, _ := experiments.Fig1b(1, 10)
		if len(series) != 4 {
			b.Fatal("unexpected family size")
		}
	}
}

// E2/E3 — Fig. 2: DCM analysis maps and the Fig. 2(o) table.
func BenchmarkFig2Maps(b *testing.B) {
	p, _ := benchPlatform(b)
	for i := 0; i < b.N; i++ {
		chips, err := p.Fig2([]int64{1, 2}, 2)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Fig2oTable(chips)
	}
}

// runPair executes a reduced Hayat/VAA pair and reports the ratio metrics
// of Figs. 7–10.
func runPair(b *testing.B, dark float64) {
	p, kits := benchPlatform(b)
	var last experiments.PairSummary
	for i := 0; i < b.N; i++ {
		ps, err := p.RunPair(kits, dark, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = ps
	}
	b.ReportMetric(last.Comparison.DTMEventsRatio, "dtm-ratio")
	b.ReportMetric(last.Comparison.TempOverAmbientRatio, "temp-ratio")
	b.ReportMetric(last.Comparison.ChipFMaxAgingRatio, "chipfmax-ratio")
	b.ReportMetric(last.Comparison.AvgFMaxAgingRatio, "avgfmax-ratio")
}

// E4 — Fig. 7: normalised DTM events (25 % and 50 % dark).
func BenchmarkFig7DTMEvents25(b *testing.B) { runPair(b, 0.25) }
func BenchmarkFig7DTMEvents50(b *testing.B) { runPair(b, 0.50) }

// E5 — Fig. 8: temperature over ambient (shares the pair run; reported as
// temp-ratio above and measured standalone here at 50 % dark).
func BenchmarkFig8AvgTemp(b *testing.B) { runPair(b, 0.50) }

// E6 — Fig. 9: chip-fmax aging rate.
func BenchmarkFig9ChipFmax(b *testing.B) { runPair(b, 0.50) }

// E7 — Fig. 10: per-core average fmax aging rate.
func BenchmarkFig10AvgFmax(b *testing.B) { runPair(b, 0.25) }

// E9 — Fig. 11: average frequency over the lifetime + lifetime extension.
func BenchmarkFig11Lifetime(b *testing.B) {
	p, kits := benchPlatform(b)
	for i := 0; i < b.N; i++ {
		ps, err := p.RunPair(kits, 0.50, 3)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Fig11Series([]experiments.PairSummary{ps})
		_ = experiments.Fig11Lifetimes([]experiments.PairSummary{ps}, []float64{3})
	}
}

// ---------------------------------------------------------------------------
// E10 — Section VI overhead: the run-time primitives.

func overheadContext(b *testing.B) (*policy.Context, *experiments.ChipKit) {
	b.Helper()
	p, kits := benchPlatform(b)
	kit := kits[0]
	n := p.FP.N()
	ctx := &policy.Context{
		Chip: kit.Chip, Predictor: kit.Pred, AgingTable: kit.Table, PowerModel: p.PM,
		TSafe: 368.15, MaxOnCores: n / 2, HorizonYears: 0.25,
		Health: make([]aging.State, n),
		FMax:   append([]float64(nil), kit.Chip.FMax0...),
		Temps:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		ctx.Health[i] = aging.NewState()
		ctx.Temps[i] = 330
	}
	return ctx, kit
}

// BenchmarkEstimateNextHealth measures one health-table estimate (paper:
// ≈10 µs).
func BenchmarkEstimateNextHealth(b *testing.B) {
	ctx, _ := overheadContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EstimateNextHealth(ctx, i%64, 335, 0.6)
	}
}

// BenchmarkPredictTemperature measures one full chip thermal prediction
// (paper: ≈25 µs).
func BenchmarkPredictTemperature(b *testing.B) {
	_, kit := overheadContext(b)
	n := 64
	pdyn := make([]float64, n)
	on := make([]bool, n)
	for i := 0; i < n; i += 2 {
		pdyn[i], on[i] = 4, true
	}
	dst, total := make([]float64, n), make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kit.Pred.Predict(dst, total, pdyn, on)
	}
}

// BenchmarkWorstCaseDecision measures one full Algorithm 1 mapping
// decision for a whole mix (paper worst case: ≈1.6 ms).
func BenchmarkWorstCaseDecision(b *testing.B) {
	ctx, _ := overheadContext(b)
	mix, err := workload.GenerateMix(workload.MixConfig{MaxThreads: 32, Apps: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	threads := mix.Threads(nil)
	pol, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Map(ctx, threads); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// BenchmarkAblationNaiveAging quantifies the error of naive aging
// accumulation versus effective-age re-anchoring on a cool→hot history.
func BenchmarkAblationNaiveAging(b *testing.B) {
	ca := aging.NewCoreAging(aging.DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), 1))
	tab := aging.DefaultTable(ca)
	var gap float64
	for i := 0; i < b.N; i++ {
		correct, naive := aging.NewState(), aging.NewState()
		correct.Advance(tab, 320, 0.4, 5)
		naive.NaiveAdvance(tab, 320, 0.4, 0, 5)
		correct.Advance(tab, 400, 0.9, 5)
		naive.NaiveAdvance(tab, 400, 0.9, 5, 5)
		gap = naive.Factor - correct.Factor
	}
	b.ReportMetric(gap, "health-overestimate")
}

// ablationRun runs a reduced Hayat lifetime with a modified config and
// reports the end-of-life average frequency.
func ablationRun(b *testing.B, mutate func(*core.Config)) {
	p, kits := benchPlatform(b)
	cfg := sim.DefaultConfig()
	cfg.Years = 2
	cfg.WindowSeconds = 2.0
	hcfg := core.DefaultConfig()
	mutate(&hcfg)
	pol, err := core.New(hcfg)
	if err != nil {
		b.Fatal(err)
	}
	var avgF float64
	for i := 0; i < b.N; i++ {
		eng, err := sim.New(cfg, pol, kits[0].Chip, p.TM, p.PM, kits[0].Pred, kits[0].Table)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		avgF = res.Records[len(res.Records)-1].AvgFMax
	}
	b.ReportMetric(avgF/1e9, "avgf-ghz")
}

// BenchmarkAblationWeightsDefault is the reference point for the weight
// ablations below.
func BenchmarkAblationWeightsDefault(b *testing.B) {
	ablationRun(b, func(*core.Config) {})
}

// BenchmarkAblationNoSpread disables the DCM-optimisation spread term —
// the mapping degenerates toward VAA-like clustering.
func BenchmarkAblationNoSpread(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.SpreadWeight = 0 })
}

// BenchmarkAblationNoIncumbency disables DCM stability across epochs —
// stress rotates onto fresh cores whose y^(1/6) aging is steepest.
func BenchmarkAblationNoIncumbency(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.IncumbentWeight = 0 })
}

// BenchmarkAblationNoHealthTerm removes Eq. 9's health ratio (β = 0).
func BenchmarkAblationNoHealthTerm(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.BetaEarly, c.BetaLate = 0, 0 })
}

// BenchmarkAblationFullPredict disables the affected-core pruning of
// Algorithm 1 line 8 (every candidate re-evaluates every core's health).
func BenchmarkAblationFullPredict(b *testing.B) {
	ctx, _ := overheadContext(b)
	mix, err := workload.GenerateMix(workload.MixConfig{MaxThreads: 32, Apps: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	threads := mix.Threads(nil)
	cfg := core.DefaultConfig()
	cfg.AffectedDeltaK = 0 // no pruning
	pol, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Map(ctx, threads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDCMPolicies compares steady-state peak temperatures of
// contiguous, checkerboard and Hayat-spread DCM shapes at equal power —
// the physical basis of Fig. 2.
func BenchmarkAblationDCMPolicies(b *testing.B) {
	p, _ := benchPlatform(b)
	n := p.FP.N()
	var contiguous, checker float64
	for i := 0; i < b.N; i++ {
		power := make([]float64, n)
		for c := 0; c < 32; c++ {
			power[c] = 6
		}
		temps := p.TM.SteadyState(power, nil)
		contiguous = maxOf(temps)

		power = make([]float64, n)
		for c := 0; c < n; c++ {
			if (c/8+c%8)%2 == 0 {
				power[c] = 6
			}
		}
		temps = p.TM.SteadyState(power, nil)
		checker = maxOf(temps)
	}
	b.ReportMetric(contiguous, "contiguous-peakK")
	b.ReportMetric(checker, "checker-peakK")
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// BenchmarkAblationHCI compares end-of-run average frequency of the
// NBTI-only model against the NBTI+HCI composite (the aging-physics
// extension), holding everything else fixed.
func BenchmarkAblationHCI(b *testing.B) {
	p, kits := benchPlatform(b)
	kit := kits[0]
	composite, err := aging.NewCompositeCoreAging(aging.DefaultParams(), aging.DefaultHCIParams(),
		gates.Generate(gates.DefaultGenerateConfig(), 1))
	if err != nil {
		b.Fatal(err)
	}
	compositeTable := aging.DefaultTable(composite)
	cfg := sim.DefaultConfig()
	cfg.Years = 2
	cfg.WindowSeconds = 2.0
	pol, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var nbtiF, hciF float64
	for i := 0; i < b.N; i++ {
		engN, err := sim.New(cfg, pol, kit.Chip, p.TM, p.PM, kit.Pred, kit.Table)
		if err != nil {
			b.Fatal(err)
		}
		resN, err := engN.Run()
		if err != nil {
			b.Fatal(err)
		}
		engH, err := sim.New(cfg, pol, kit.Chip, p.TM, p.PM, kit.Pred, compositeTable)
		if err != nil {
			b.Fatal(err)
		}
		resH, err := engH.Run()
		if err != nil {
			b.Fatal(err)
		}
		nbtiF = resN.Records[len(resN.Records)-1].AvgFMax
		hciF = resH.Records[len(resH.Records)-1].AvgFMax
	}
	b.ReportMetric(nbtiF/1e9, "nbti-avgf-ghz")
	b.ReportMetric(hciF/1e9, "hci-avgf-ghz")
}

// ---------------------------------------------------------------------------
// Substrate benchmarks: the cost of the building blocks.

// BenchmarkThermalSteadyState measures one steady-state solve on the
// paper's 8×8 network.
func BenchmarkThermalSteadyState(b *testing.B) {
	p, _ := benchPlatform(b)
	power := make([]float64, 64)
	for i := range power {
		power[i] = 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TM.SteadyState(power, nil)
	}
}

// BenchmarkThermalSteadyStateLarge measures one steady-state solve on a
// 20×20-core network (1200 nodes).
func BenchmarkThermalSteadyStateLarge(b *testing.B) {
	fp := floorplan.New(20, 20)
	tm, err := thermal.New(fp, thermal.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	power := make([]float64, fp.N())
	for i := range power {
		power[i] = 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.SteadyState(power, nil)
	}
}

// BenchmarkThermalTransientStep measures one implicit-Euler step (the
// inner loop of every epoch window).
func BenchmarkThermalTransientStep(b *testing.B) {
	p, _ := benchPlatform(b)
	tr, err := p.TM.NewTransient(0.02)
	if err != nil {
		b.Fatal(err)
	}
	power := make([]float64, 64)
	for i := range power {
		power[i] = 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(power)
	}
}

// BenchmarkGridModelSteadyState measures the sub-core grid model at
// SubDiv = 2 (384 nodes).
func BenchmarkGridModelSteadyState(b *testing.B) {
	p, _ := benchPlatform(b)
	grid, err := thermal.NewGrid(p.FP, thermal.DefaultConfig(), 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	power := make([]float64, 64)
	for i := range power {
		power[i] = 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.SteadyState(power, nil)
	}
}

// BenchmarkVariationChip measures drawing one die from the correlated
// process-variation model (Cholesky colouring + per-core derivation).
func BenchmarkVariationChip(b *testing.B) {
	p, _ := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Gen.Chip(int64(i + 1))
	}
}

// BenchmarkAgingTableBuild measures the offline 3D-table generation (the
// "start-up time effort for a given chip").
func BenchmarkAgingTableBuild(b *testing.B) {
	ca := aging.NewCoreAging(aging.DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aging.DefaultTable(ca)
	}
}

// BenchmarkPredictorLearn measures the offline thermal-profile learning
// (64 steady-state probes).
func BenchmarkPredictorLearn(b *testing.B) {
	p, kits := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermpredict.Learn(p.TM, p.PM, kits[0].Chip); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCompactPredictor compares the exact response-matrix
// predictor against the radial-kernel variant: per-call time plus the
// worst-case temperature error of the approximation.
func BenchmarkAblationCompactPredictor(b *testing.B) {
	p, kits := benchPlatform(b)
	kit := kits[0]
	cp, err := thermpredict.LearnCompact(p.TM, p.PM, kit.Chip)
	if err != nil {
		b.Fatal(err)
	}
	n := 64
	pdyn := make([]float64, n)
	on := make([]bool, n)
	for i := 0; i < n; i += 2 {
		pdyn[i], on[i] = 4, true
	}
	dst := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Predict(dst, pdyn, on)
	}
	b.StopTimer()
	b.ReportMetric(cp.AccuracyVs(kit.Pred, pdyn, on), "worst-err-K")
	b.ReportMetric(float64(cp.KernelSize()), "kernel-floats")
}

// BenchmarkArrivalDecision measures the paper's actual overhead scenario:
// incremental placement of a newly arrived application into a running
// mapping (Section VI quotes ≈1.6 ms worst case).
func BenchmarkArrivalDecision(b *testing.B) {
	ctx, _ := overheadContext(b)
	mix, err := workload.GenerateMix(workload.MixConfig{MaxThreads: 32, Apps: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	threads := mix.Threads(nil)
	pol, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	baseRes, err := pol.Map(ctx, threads[:len(threads)-4])
	if err != nil {
		b.Fatal(err)
	}
	arrivals := threads[len(threads)-4:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.MapIncremental(ctx, baseRes.Assignment, arrivals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPolicyLadder brackets the policy space: Random
// (feasibility only) → CoolestFirst (temperature only) → VAA (locality,
// max-throughput) → Hayat (aging + variation + DCM), reporting the
// end-of-run average frequency of each on the same chip.
func BenchmarkAblationPolicyLadder(b *testing.B) {
	p, kits := benchPlatform(b)
	cfg := sim.DefaultConfig()
	cfg.Years = 2
	cfg.WindowSeconds = 2.0
	pols := []policy.Policy{
		baseline.NewRandom(1),
		baseline.NewCoolestFirst(),
	}
	if v, err := baseline.New(baseline.DefaultConfig()); err == nil {
		pols = append(pols, v)
	}
	if h, err := core.New(core.DefaultConfig()); err == nil {
		pols = append(pols, h)
	}
	finals := make(map[string]float64)
	for i := 0; i < b.N; i++ {
		for _, pol := range pols {
			eng, err := sim.New(cfg, pol, kits[0].Chip, p.TM, p.PM, kits[0].Pred, kits[0].Table)
			if err != nil {
				b.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				b.Fatal(err)
			}
			finals[pol.Name()] = res.Records[len(res.Records)-1].AvgFMax / 1e9
		}
	}
	b.ReportMetric(finals["Random"], "random-ghz")
	b.ReportMetric(finals["CoolestFirst"], "coolest-ghz")
	b.ReportMetric(finals["VAA"], "vaa-ghz")
	b.ReportMetric(finals["Hayat"], "hayat-ghz")
}
