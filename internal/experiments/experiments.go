// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI plus the analysis figures): it is the harness
// behind cmd/experiments and the repository's benchmark suite. See
// DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/baseline"
	"github.com/kit-ces/hayat/internal/binning"
	"github.com/kit-ces/hayat/internal/core"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/gates"
	"github.com/kit-ces/hayat/internal/metrics"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/report"
	"github.com/kit-ces/hayat/internal/sim"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/variation"
	"github.com/kit-ces/hayat/internal/workload"
)

// Platform bundles the chip-independent models shared by a whole
// experiment campaign.
type Platform struct {
	FP  *floorplan.Floorplan
	TM  *thermal.Model
	PM  power.Model
	Gen *variation.Generator
}

// NewPlatform assembles the paper's default platform.
func NewPlatform() (*Platform, error) {
	fp := floorplan.Default()
	tm, err := thermal.New(fp, thermal.DefaultConfig())
	if err != nil {
		return nil, err
	}
	gen, err := variation.NewGenerator(variation.DefaultModel(), fp)
	if err != nil {
		return nil, err
	}
	return &Platform{FP: fp, TM: tm, PM: power.DefaultModel(), Gen: gen}, nil
}

// ChipKit is one die plus its learned predictor and offline aging tables,
// reusable across policies and dark fractions.
type ChipKit struct {
	Chip  *variation.Chip
	Pred  *thermpredict.Predictor
	Aging *aging.CoreAging
	Table *aging.Table3D
}

// Kit builds the per-chip artefacts for one seed.
func (p *Platform) Kit(seed int64) (*ChipKit, error) {
	chip := p.Gen.Chip(seed)
	pred, err := thermpredict.Learn(p.TM, p.PM, chip)
	if err != nil {
		return nil, err
	}
	ca := aging.NewCoreAging(aging.DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), seed))
	return &ChipKit{Chip: chip, Pred: pred, Aging: ca, Table: aging.DefaultTable(ca)}, nil
}

// Kits builds a population of chips with consecutive seeds.
func (p *Platform) Kits(baseSeed int64, count int) ([]*ChipKit, error) {
	kits := make([]*ChipKit, count)
	for i := range kits {
		k, err := p.Kit(baseSeed + int64(i))
		if err != nil {
			return nil, err
		}
		kits[i] = k
	}
	return kits, nil
}

// NewPolicy instantiates a policy by name ("Hayat" or "VAA").
func NewPolicy(name string) (policy.Policy, error) {
	switch name {
	case "Hayat":
		return core.New(core.DefaultConfig())
	case "VAA":
		return baseline.New(baseline.DefaultConfig())
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// RunOne simulates one chip's lifetime under one policy.
func (p *Platform) RunOne(kit *ChipKit, polName string, cfg sim.Config) (*sim.Result, error) {
	pol, err := NewPolicy(polName)
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(cfg, pol, kit.Chip, p.TM, p.PM, kit.Pred, kit.Table)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// RunPopulation simulates every kit under one policy and summarises.
func (p *Platform) RunPopulation(kits []*ChipKit, polName string, cfg sim.Config) (metrics.Summary, []*sim.Result, error) {
	var results []*sim.Result
	for _, kit := range kits {
		res, err := p.RunOne(kit, polName, cfg)
		if err != nil {
			return metrics.Summary{}, nil, err
		}
		results = append(results, res)
	}
	sum, err := metrics.Summarize(results, p.TM.Ambient(), 21)
	if err != nil {
		return metrics.Summary{}, nil, err
	}
	return sum, results, nil
}

// ---------------------------------------------------------------------------
// E1 — Fig. 1(b): temperature-dependent delay increase over 10 years.

// Fig1b returns the delay-increase factors over `maxYears` years for the
// paper's temperature family (25/75/100/140 °C) and the rendered TSV.
func Fig1b(seed int64, maxYears int) (map[int][]float64, string) {
	ca := aging.NewCoreAging(aging.DefaultParams(), gates.Generate(gates.DefaultGenerateConfig(), seed))
	tempsC := []int{25, 75, 100, 140}
	out := make(map[int][]float64, len(tempsC))
	years := make([]float64, maxYears+1)
	cols := make([][]float64, 0, len(tempsC))
	for y := 0; y <= maxYears; y++ {
		years[y] = float64(y)
	}
	header := []string{"year"}
	for _, tc := range tempsC {
		series := make([]float64, maxYears+1)
		for y := 0; y <= maxYears; y++ {
			series[y] = ca.DelayIncreaseFactor(float64(tc)+273.15, 1.0, float64(y))
		}
		out[tc] = series
		cols = append(cols, series)
		header = append(header, fmt.Sprintf("%dC", tc))
	}
	return out, report.TSV(header, append([][]float64{years}, cols...)...)
}

// ---------------------------------------------------------------------------
// E2/E3 — Fig. 2: DCM analysis for two chips (frequency maps at year 0 and
// year 10, steady-state temperature maps, and the Fig. 2(o) table).

// Fig2Chip is the analysis of one chip under one DCM policy.
type Fig2Chip struct {
	ChipSeed                     int64
	DCMName                      string // "contiguous (DCM-1)" or "optimised (DCM-2)"
	FreqYr0                      []float64
	FreqYr10                     []float64
	TempSteady                   []float64
	MaxF0, AvgF0, MaxF10, AvgF10 float64
	MaxT, AvgT                   float64
}

// Fig2 runs the two-chips × two-DCMs analysis of Fig. 2 at 50 % dark
// silicon. DCM-1 (contiguous) is produced by the VAA mapper, DCM-2
// (variation/temperature-optimised) by Hayat.
func (p *Platform) Fig2(seeds []int64, years float64) ([]Fig2Chip, error) {
	cfg := sim.DefaultConfig()
	cfg.Years = years
	cfg.WindowSeconds = 2.0
	var out []Fig2Chip
	for _, seed := range seeds {
		kit, err := p.Kit(seed)
		if err != nil {
			return nil, err
		}
		for _, pol := range []struct{ name, dcm string }{
			{"VAA", "contiguous (DCM-1)"},
			{"Hayat", "optimised (DCM-2)"},
		} {
			res, err := p.RunOne(kit, pol.name, cfg)
			if err != nil {
				return nil, err
			}
			fc := Fig2Chip{
				ChipSeed:   seed,
				DCMName:    pol.dcm,
				FreqYr0:    append([]float64(nil), res.InitialFMax...),
				FreqYr10:   append([]float64(nil), res.FinalFMax...),
				TempSteady: append([]float64(nil), res.FinalTemps...),
			}
			fc.MaxF0, fc.AvgF0 = maxAvg(fc.FreqYr0)
			fc.MaxF10, fc.AvgF10 = maxAvg(fc.FreqYr10)
			fc.MaxT, fc.AvgT = maxAvg(fc.TempSteady)
			out = append(out, fc)
		}
	}
	return out, nil
}

// Fig2oTable renders the Fig. 2(o) rows for the analysis results.
func Fig2oTable(chips []Fig2Chip) string {
	header := []string{"Chip", "DCM", "MaxF@Yr0", "MaxF@Yr10", "AvgF@Yr0", "AvgF@Yr10", "MaxT[K]", "AvgT[K]"}
	var rows [][]string
	for _, c := range chips {
		rows = append(rows, []string{
			fmt.Sprintf("chip-%d", c.ChipSeed),
			c.DCMName,
			fmt.Sprintf("%.2f", c.MaxF0/1e9),
			fmt.Sprintf("%.2f", c.MaxF10/1e9),
			fmt.Sprintf("%.2f", c.AvgF0/1e9),
			fmt.Sprintf("%.2f", c.AvgF10/1e9),
			fmt.Sprintf("%.2f", c.MaxT),
			fmt.Sprintf("%.2f", c.AvgT),
		})
	}
	return report.Table(header, rows)
}

// RenderFig2Maps renders the per-core maps of one Fig. 2 analysis entry.
func (p *Platform) RenderFig2Maps(c Fig2Chip) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chip-%d, %s\n", c.ChipSeed, c.DCMName)
	fmt.Fprintf(&b, "frequency @ year 0 [GHz]:\n%s", report.NumericMap(scale(c.FreqYr0, 1e-9), p.FP.Rows, p.FP.Cols, "%4.2f"))
	fmt.Fprintf(&b, "frequency @ year 10 [GHz]:\n%s", report.NumericMap(scale(c.FreqYr10, 1e-9), p.FP.Rows, p.FP.Cols, "%4.2f"))
	fmt.Fprintf(&b, "steady-state temperature heat map (scale %.1f–%.1f K):\n%s",
		minOf(c.TempSteady), maxOf(c.TempSteady),
		report.HeatMap(c.TempSteady, p.FP.Rows, p.FP.Cols, 0, 0))
	return b.String()
}

// ---------------------------------------------------------------------------
// E4–E7 — Figs. 7–10: populations at 25 % and 50 % dark silicon.

// PairSummary is the Hayat/VAA population pair at one dark fraction.
type PairSummary struct {
	Dark       float64
	Hayat, VAA metrics.Summary
	Comparison metrics.Comparison
}

// RunPair runs both policies over the kit population at one dark fraction.
func (p *Platform) RunPair(kits []*ChipKit, dark, years float64) (PairSummary, error) {
	cfg := sim.DefaultConfig()
	cfg.DarkFraction = dark
	cfg.Years = years
	cfg.WindowSeconds = 2.0
	h, _, err := p.RunPopulation(kits, "Hayat", cfg)
	if err != nil {
		return PairSummary{}, err
	}
	v, _, err := p.RunPopulation(kits, "VAA", cfg)
	if err != nil {
		return PairSummary{}, err
	}
	c, err := metrics.Compare(h, v)
	if err != nil {
		return PairSummary{}, err
	}
	return PairSummary{Dark: dark, Hayat: h, VAA: v, Comparison: c}, nil
}

// RenderBars renders the Figs. 7–10 normalised bar chart for one pair.
func RenderBars(ps PairSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "minimum %d %% dark silicon (VAA normalised to 1.0):\n", int(ps.Dark*100))
	fmt.Fprintf(&b, "Fig. 7  DTM events      %s\n", oneBar(ps.Comparison.DTMEventsRatio))
	fmt.Fprintf(&b, "Fig. 8  T over ambient  %s\n", oneBar(ps.Comparison.TempOverAmbientRatio))
	fmt.Fprintf(&b, "Fig. 9  chip-fmax aging %s\n", oneBar(ps.Comparison.ChipFMaxAgingRatio))
	fmt.Fprintf(&b, "Fig.10  avg-fmax aging  %s\n", oneBar(ps.Comparison.AvgFMaxAgingRatio))
	fmt.Fprintf(&b, "raw: DTM H=%d V=%d | ΔT_amb H=%.2fK V=%.2fK | Δmaxf H=%.0fMHz V=%.0fMHz | Δavgf H=%.0fMHz V=%.0fMHz\n",
		ps.Hayat.TotalDTMEvents, ps.VAA.TotalDTMEvents,
		ps.Hayat.MeanTempOverAmbient, ps.VAA.MeanTempOverAmbient,
		ps.Hayat.ChipFMaxAgingRate/1e6, ps.VAA.ChipFMaxAgingRate/1e6,
		ps.Hayat.AvgFMaxAgingRate/1e6, ps.VAA.AvgFMaxAgingRate/1e6)
	return b.String()
}

func oneBar(ratio float64) string {
	return report.Bar("Hayat/VAA", ratio, 1.5, 30)
}

// ---------------------------------------------------------------------------
// E8/E9 — Fig. 11: aged maps and average frequency over the lifetime.

// Fig11Series renders the Fig. 11 (right) TSV for a pair of populations.
func Fig11Series(pairs []PairSummary) string {
	var b strings.Builder
	for _, ps := range pairs {
		fmt.Fprintf(&b, "# %d%% dark silicon\n", int(ps.Dark*100))
		b.WriteString(report.TSV(
			[]string{"year", "Hayat_GHz", "VAA_GHz"},
			ps.Hayat.Years,
			scale(ps.Hayat.AvgFMaxSeries, 1e-9),
			scale(ps.VAA.AvgFMaxSeries, 1e-9),
		))
	}
	return b.String()
}

// Fig11Lifetimes renders the lifetime-extension headline numbers.
func Fig11Lifetimes(pairs []PairSummary, requiredYears []float64) string {
	header := []string{"dark", "required lifetime [yr]", "threshold [GHz]", "Hayat extension [yr]"}
	var rows [][]string
	for _, ps := range pairs {
		for _, ry := range requiredYears {
			ext, thr := metrics.LifetimeExtension(ps.Hayat, ps.VAA, ry)
			rows = append(rows, []string{
				fmt.Sprintf("%d%%", int(ps.Dark*100)),
				fmt.Sprintf("%.0f", ry),
				fmt.Sprintf("%.3f", thr/1e9),
				fmt.Sprintf("%+.2f", ext),
			})
		}
	}
	return report.Table(header, rows)
}

// ---------------------------------------------------------------------------
// E10 — Section VI overhead: per-decision primitive timings.

// OverheadResult reports the measured per-call latencies.
type OverheadResult struct {
	EstimateNextHealth time.Duration
	PredictTemperature time.Duration
	// ArrivalDecision is one incremental placement of a newly arrived
	// application into a running mapping — the scenario behind the
	// paper's ≈1.6 ms worst case.
	ArrivalDecision time.Duration
	// FullMapDecision is a whole-mix remap (epoch boundary).
	FullMapDecision time.Duration
}

// Overhead measures the paper's two run-time primitives plus one full
// Algorithm 1 decision on a 64-core chip.
func (p *Platform) Overhead(seed int64) (OverheadResult, error) {
	kit, err := p.Kit(seed)
	if err != nil {
		return OverheadResult{}, err
	}
	n := p.FP.N()
	ctx := &policy.Context{
		Chip: kit.Chip, Predictor: kit.Pred, AgingTable: kit.Table, PowerModel: p.PM,
		TSafe: 368.15, MaxOnCores: n / 2, HorizonYears: 0.25,
		Health: make([]aging.State, n), FMax: append([]float64(nil), kit.Chip.FMax0...),
		Temps: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		ctx.Health[i] = aging.NewState()
		ctx.Temps[i] = 330
	}

	var r OverheadResult
	// estimateNextHealth.
	const healthIters = 2000
	start := time.Now()
	for i := 0; i < healthIters; i++ {
		core.EstimateNextHealth(ctx, i%n, 335+float64(i%20), 0.6)
	}
	r.EstimateNextHealth = time.Since(start) / healthIters

	// predictTemperature (full super-position + leakage correction).
	pdyn := make([]float64, n)
	on := make([]bool, n)
	for i := 0; i < n; i += 2 {
		pdyn[i], on[i] = 4, true
	}
	dst, total := make([]float64, n), make([]float64, n)
	const predIters = 2000
	start = time.Now()
	for i := 0; i < predIters; i++ {
		kit.Pred.Predict(dst, total, pdyn, on)
	}
	r.PredictTemperature = time.Since(start) / predIters

	// One full mapping decision (epoch boundary) and one incremental
	// application arrival (the paper's overhead scenario).
	mix, err := workload.GenerateMix(workload.MixConfig{MaxThreads: n / 2, Apps: 4}, seed)
	if err != nil {
		return OverheadResult{}, err
	}
	hay, err := core.New(core.DefaultConfig())
	if err != nil {
		return OverheadResult{}, err
	}
	threads := mix.Threads(nil)
	const mapIters = 10
	start = time.Now()
	for i := 0; i < mapIters; i++ {
		if _, err := hay.Map(ctx, threads); err != nil {
			return OverheadResult{}, err
		}
	}
	r.FullMapDecision = time.Since(start) / mapIters

	baseRes, err := hay.Map(ctx, threads[:len(threads)-4])
	if err != nil {
		return OverheadResult{}, err
	}
	arrivals := threads[len(threads)-4:]
	start = time.Now()
	for i := 0; i < mapIters; i++ {
		if _, err := hay.MapIncremental(ctx, baseRes.Assignment, arrivals); err != nil {
			return OverheadResult{}, err
		}
	}
	r.ArrivalDecision = time.Since(start) / mapIters
	return r, nil
}

// ---------------------------------------------------------------------------

func maxAvg(v []float64) (max, avg float64) {
	for _, x := range v {
		avg += x
		if x > max {
			max = x
		}
	}
	return max, avg / float64(len(v))
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
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

// ---------------------------------------------------------------------------
// SVG figure rendering (cmd/experiments -svg).

// SVGFig1b renders the Fig. 1(b) line chart.
func SVGFig1b(seed int64, maxYears int) string {
	series, _ := Fig1b(seed, maxYears)
	years := make([]float64, maxYears+1)
	for y := range years {
		years[y] = float64(y)
	}
	var ss []report.Series
	for _, tc := range []int{25, 75, 100, 140} {
		ss = append(ss, report.Series{Name: fmt.Sprintf("%d °C", tc), X: years, Y: series[tc]})
	}
	return report.SVGLineChart("Fig. 1(b): delay increase vs. age", "age [years]", "delay factor", ss)
}

// SVGFig2Temps renders one Fig. 2 temperature map.
func (p *Platform) SVGFig2Temps(c Fig2Chip) string {
	return report.SVGHeatMap(
		fmt.Sprintf("Fig. 2: chip-%d steady-state temperature, %s", c.ChipSeed, c.DCMName),
		c.TempSteady, p.FP.Rows, p.FP.Cols, 0, 0)
}

// SVGFigBars renders the Figs. 7–10 normalised comparison for one pair.
func SVGFigBars(ps PairSummary) string {
	return report.SVGBarChart(
		fmt.Sprintf("Figs. 7–10: Hayat/VAA at %d%% dark silicon", int(ps.Dark*100)),
		[]string{"Fig.7 DTM events", "Fig.8 T over ambient", "Fig.9 chip-fmax aging", "Fig.10 avg-fmax aging"},
		[]float64{
			ps.Comparison.DTMEventsRatio,
			ps.Comparison.TempOverAmbientRatio,
			ps.Comparison.ChipFMaxAgingRatio,
			ps.Comparison.AvgFMaxAgingRatio,
		}, 1.0)
}

// SVGFig11 renders the Fig. 11 (right) lifetime series for one pair.
func SVGFig11(ps PairSummary) string {
	ghz := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x / 1e9
		}
		return out
	}
	return report.SVGLineChart(
		fmt.Sprintf("Fig. 11: average frequency over lifetime (%d%% dark)", int(ps.Dark*100)),
		"years", "average fmax [GHz]",
		[]report.Series{
			{Name: "Hayat", X: ps.Hayat.Years, Y: ghz(ps.Hayat.AvgFMaxSeries)},
			{Name: "VAA", X: ps.VAA.Years, Y: ghz(ps.VAA.AvgFMaxSeries)},
		})
}

// SVGFreqMap renders a per-core frequency map in GHz.
func (p *Platform) SVGFreqMap(title string, freqHz []float64) string {
	ghz := make([]float64, len(freqHz))
	for i, f := range freqHz {
		ghz[i] = f / 1e9
	}
	return report.SVGHeatMap(title, ghz, p.FP.Rows, p.FP.Cols, 0, 0)
}

// ---------------------------------------------------------------------------
// Fig. 1(a): the short-term stress/recovery sawtooth with a ratcheting
// long-term floor.

// Fig1a returns the sawtooth trace and its TSV rendering.
func Fig1a(tempK float64) ([]aging.Fig1aPoint, string, error) {
	pts, err := aging.Fig1aTrace(aging.DefaultShortTermParams(), tempK, 2.0, 2.0, 0.05, 5)
	if err != nil {
		return nil, "", err
	}
	times := make([]float64, len(pts))
	shifts := make([]float64, len(pts))
	for i, p := range pts {
		times[i] = p.Time
		shifts[i] = p.Shift * 1e3 // mV
	}
	return pts, report.TSV([]string{"time_s", "dVth_mV"}, times, shifts), nil
}

// SVGFig1a renders the sawtooth as a line chart.
func SVGFig1a(tempK float64) (string, error) {
	pts, _, err := Fig1a(tempK)
	if err != nil {
		return "", err
	}
	times := make([]float64, len(pts))
	shifts := make([]float64, len(pts))
	for i, p := range pts {
		times[i] = p.Time
		shifts[i] = p.Shift * 1e3
	}
	return report.SVGLineChart(
		fmt.Sprintf("Fig. 1(a): short-term stress/recovery at %.0f K", tempK),
		"time [s]", "ΔVth [mV]",
		[]report.Series{{Name: "ΔVth", X: times, Y: shifts}}), nil
}

// ---------------------------------------------------------------------------
// Guardband analysis: the paper's introduction motivates run-time aging
// management by the cost of design-time guardbanding (Δf ≥ 20 % over the
// lifetime). This experiment quantifies the comparison on our platform:
// the static frequency guardband a designer must reserve for worst-case
// aging (T_safe, duty 1.0, full lifetime — the conservative corner) versus
// the degradation the chip actually suffers under each run-time policy.

// GuardbandRow is one chip's guardband accounting (fractions of f_max).
type GuardbandRow struct {
	ChipSeed int64
	// Static is the design-time reserve: worst-case degradation from the
	// chip's own aging tables at (T_safe, duty 1, full lifetime).
	Static float64
	// Hayat and VAA are the worst per-core degradations actually
	// measured under each policy.
	Hayat, VAA float64
}

// Guardband runs both policies over the kits and returns per-chip rows
// plus a rendered table.
func (p *Platform) Guardband(kits []*ChipKit, years float64) ([]GuardbandRow, string, error) {
	cfg := sim.DefaultConfig()
	cfg.Years = years
	cfg.WindowSeconds = 2.0
	var rows []GuardbandRow
	for _, kit := range kits {
		row := GuardbandRow{ChipSeed: kit.Chip.Seed}
		row.Static = 1 - kit.Table.Lookup(cfg.DTM.TSafe, 1.0, years)
		for _, pol := range []string{"Hayat", "VAA"} {
			res, err := p.RunOne(kit, pol, cfg)
			if err != nil {
				return nil, "", err
			}
			worst := 0.0
			for _, h := range res.FinalHealth {
				if d := 1 - h; d > worst {
					worst = d
				}
			}
			if pol == "Hayat" {
				row.Hayat = worst
			} else {
				row.VAA = worst
			}
		}
		rows = append(rows, row)
	}
	header := []string{"chip", "static guardband", "worst under VAA", "worst under Hayat", "recovered vs static"}
	var cells [][]string
	var sumStatic, sumH float64
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.ChipSeed),
			fmt.Sprintf("%.1f%%", r.Static*100),
			fmt.Sprintf("%.1f%%", r.VAA*100),
			fmt.Sprintf("%.1f%%", r.Hayat*100),
			fmt.Sprintf("%.1f pp", (r.Static-r.Hayat)*100),
		})
		sumStatic += r.Static
		sumH += r.Hayat
	}
	n := float64(len(rows))
	table := report.Table(header, cells)
	table += fmt.Sprintf("\nmean static guardband %.1f%% vs mean worst degradation under Hayat %.1f%% → %.1f pp of frequency reserve recovered by run-time management\n",
		sumStatic/n*100, sumH/n*100, (sumStatic-sumH)/n*100)
	return rows, table, nil
}

// ---------------------------------------------------------------------------
// Speed-grade binning (the cherry-picking [26] view): how many premium
// cores survive the lifetime under each policy.

// BinShift runs both policies over the kits and returns the rendered
// grade-shift report.
func (p *Platform) BinShift(kits []*ChipKit, years float64) (string, error) {
	bins := binning.Default()
	cfg := sim.DefaultConfig()
	cfg.Years = years
	cfg.WindowSeconds = 2.0
	var out strings.Builder
	for _, polName := range []string{"VAA", "Hayat"} {
		var before, after []float64
		for _, kit := range kits {
			res, err := p.RunOne(kit, polName, cfg)
			if err != nil {
				return "", err
			}
			before = append(before, res.InitialFMax...)
			after = append(after, res.FinalFMax...)
		}
		shift, err := bins.ComputeShift(before, after)
		if err != nil {
			return "", err
		}
		out.WriteString(bins.Render(
			fmt.Sprintf("%s: core speed grades, year 0 → year %.0f (%d chips, %d cores)",
				polName, years, len(kits), len(before)), shift))
		out.WriteByte('\n')
	}
	return out.String(), nil
}
