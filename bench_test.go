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
	"context"
	"fmt"
	"testing"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/baseline"
	"github.com/kit-ces/hayat/internal/core"
	"github.com/kit-ces/hayat/internal/experiments"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/gates"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/sim"
	"github.com/kit-ces/hayat/internal/testutil"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/variation"
	"github.com/kit-ces/hayat/internal/workload"
)

// benchCache shares chip artifacts across the figure benchmarks, as
// cmd/experiments shares them across one campaign.
var benchCache = hayat.NewArtifactCache()

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
	for i := 0; i < b.N; i++ {
		ps, err := experiments.RunPair(benchCache, 1, 2, 0.50, 2)
		if err != nil {
			b.Fatal(err)
		}
		chips, err := experiments.Fig2(ps, 2)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Fig2oTable(chips)
	}
}

// runPair executes a reduced Hayat/VAA pair and reports the ratio metrics
// of Figs. 7–10.
func runPair(b *testing.B, dark float64) {
	var last experiments.PairSummary
	for i := 0; i < b.N; i++ {
		ps, err := experiments.RunPair(benchCache, 1, 2, dark, 2)
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
	for i := 0; i < b.N; i++ {
		ps, err := experiments.RunPair(benchCache, 1, 2, 0.50, 3)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Fig11Series([]experiments.PairSummary{ps})
		_ = experiments.Fig11Lifetimes([]experiments.PairSummary{ps}, []float64{3})
	}
}

// ---------------------------------------------------------------------------
// E10 — Section VI overhead: the run-time primitives.

// overheadContext is chip 1's unaged policy context at 50 % dark, with
// every core at 330 K.
func overheadContext(b *testing.B) (*policy.Context, *testutil.Fixture) {
	b.Helper()
	fix := testutil.NewFixture(b, 1)
	ctx := fix.Context(0.50)
	for i := range ctx.Temps {
		ctx.Temps[i] = 330
	}
	return ctx, fix
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
	fix := testutil.NewFixture(b, 1)
	n := 64
	pdyn := make([]float64, n)
	on := make([]bool, n)
	for i := 0; i < n; i += 2 {
		pdyn[i], on[i] = 4, true
	}
	dst, total := make([]float64, n), make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.Predictor.Predict(dst, total, pdyn, on)
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
	fix := testutil.NewFixture(b, 1)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := sim.New(cfg, pol, fix.Chip, fix.Thermal, fix.Power, fix.Predictor, fix.Table)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run(context.Background(), nil, 0, nil)
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
	fix := testutil.NewFixture(b, 1)
	n := fix.FP.N()
	b.ResetTimer()
	var contiguous, checker float64
	for i := 0; i < b.N; i++ {
		power := make([]float64, n)
		for c := 0; c < 32; c++ {
			power[c] = 6
		}
		contiguous = maxOf(mustSteady(b, fix.Thermal, power))

		power = make([]float64, n)
		for c := 0; c < n; c++ {
			if (c/8+c%8)%2 == 0 {
				power[c] = 6
			}
		}
		checker = maxOf(mustSteady(b, fix.Thermal, power))
	}
	b.ReportMetric(contiguous, "contiguous-peakK")
	b.ReportMetric(checker, "checker-peakK")
}

// mustSteady is SteadyStateChecked for a benchmark's finite power vector.
func mustSteady(b *testing.B, tm *thermal.Model, power []float64) []float64 {
	temps, err := tm.SteadyStateChecked(power, nil)
	if err != nil {
		b.Fatal(err)
	}
	return temps
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
	fix := testutil.NewFixture(b, 1)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engN, err := sim.New(cfg, pol, fix.Chip, fix.Thermal, fix.Power, fix.Predictor, fix.Table)
		if err != nil {
			b.Fatal(err)
		}
		resN, err := engN.Run(context.Background(), nil, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		engH, err := sim.New(cfg, pol, fix.Chip, fix.Thermal, fix.Power, fix.Predictor, compositeTable)
		if err != nil {
			b.Fatal(err)
		}
		resH, err := engH.Run(context.Background(), nil, 0, nil)
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
	fix := testutil.NewFixture(b, 1)
	power := make([]float64, 64)
	for i := range power {
		power[i] = 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustSteady(b, fix.Thermal, power)
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
		mustSteady(b, tm, power)
	}
}

// BenchmarkThermalTransientStep measures one implicit-Euler step (the
// inner loop of every epoch window).
func BenchmarkThermalTransientStep(b *testing.B) {
	fix := testutil.NewFixture(b, 1)
	tr, err := fix.Thermal.NewTransient(0.02)
	if err != nil {
		b.Fatal(err)
	}
	power := make([]float64, 64)
	for i := range power {
		power[i] = 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.StepChecked(power); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariationChip measures drawing one die from the correlated
// process-variation model (Cholesky colouring + per-core derivation).
func BenchmarkVariationChip(b *testing.B) {
	gen, err := variation.NewGenerator(variation.DefaultModel(), floorplan.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Chip(int64(i + 1))
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

// BenchmarkNewSystem measures one platform build, the only miss an
// ArtifactCache still has: every iteration asks a fresh cache for the
// grid, so it builds the floorplan, the thermal model and the variation
// generator with its Cholesky factor. It is what a grid evicted from the
// cache costs to come back, less the thermal model's response matrix,
// which the grid's first chip builds. ROADMAP item 8's cost model reads
// the 8×8 and 16×16 figures.
func BenchmarkNewSystem(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			cfg := hayat.DefaultConfig()
			cfg.Rows, cfg.Cols = n, n
			for i := 0; i < b.N; i++ {
				if _, err := hayat.NewSystemWith(cfg, hayat.NewArtifactCache()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewChip measures one fresh chip's set-up on a warm
// ArtifactCache, the span a service-fresh request pays: the platform is
// built before the timer starts, and every iteration draws a new die,
// learns its thermal predictor and builds its aging table. ROADMAP item
// 8's cost model reads the 8×8 and 16×16 figures.
func BenchmarkNewChip(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			cfg := hayat.DefaultConfig()
			cfg.Rows, cfg.Cols = n, n
			sys, err := hayat.NewSystemWith(cfg, hayat.NewArtifactCache())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.NewChip(0); err != nil { // warms the platform
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.NewChip(int64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictorLearn measures the offline thermal-profile learning
// for one chip: its 64 ambient leakage values. The response matrix it
// reads belongs to the thermal model, which built it in the fixture's own
// Learn, before the timer starts.
func BenchmarkPredictorLearn(b *testing.B) {
	fix := testutil.NewFixture(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermpredict.Learn(fix.Thermal, fix.Power, fix.Chip); err != nil {
			b.Fatal(err)
		}
	}
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
	fix := testutil.NewFixture(b, 1)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pol := range pols {
			eng, err := sim.New(cfg, pol, fix.Chip, fix.Thermal, fix.Power, fix.Predictor, fix.Table)
			if err != nil {
				b.Fatal(err)
			}
			res, err := eng.Run(context.Background(), nil, 0, nil)
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
