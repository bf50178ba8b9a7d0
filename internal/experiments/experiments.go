// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI plus the analysis figures): it is the harness
// behind cmd/experiments and the repository's benchmark suite. Every chip
// is built and run through the root hayat API under one campaign
// configuration (Config); this package holds only the figure logic and
// its rendering. See DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"strings"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/binning"
	"github.com/kit-ces/hayat/internal/gates"
	"github.com/kit-ces/hayat/internal/report"
)

// Config returns the configuration every campaign figure runs under:
// hayat.DefaultConfig at the given dark fraction and lifetime, with 2-s
// thermal windows where the library defaults to 4 s. EXPERIMENTS.md was
// recorded at 2 s, and its header states the difference; ROADMAP.md's
// discretisation study decides whether either value moves.
func Config(dark, years float64) hayat.Config {
	cfg := hayat.DefaultConfig()
	cfg.DarkFraction = dark
	cfg.Years = years
	cfg.WindowSeconds = 2.0
	return cfg
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
	Rows, Cols                   int    // the core grid the maps lie on
	FreqYr0                      []float64
	FreqYr10                     []float64
	TempSteady                   []float64
	MaxF0, AvgF0, MaxF10, AvgF10 float64
	MaxT, AvgT                   float64
}

// Fig2 is the two-DCMs analysis of Fig. 2 for the first chips of a
// population pair (the paper shows two chips at 50 % dark silicon).
// DCM-1 (contiguous) is produced by the VAA mapper, DCM-2
// (variation/temperature-optimised) by Hayat.
func Fig2(ps PairSummary, chips int) ([]Fig2Chip, error) {
	if err := ps.holds(chips); err != nil {
		return nil, err
	}
	cfg := Config(ps.Dark, ps.Years)
	var out []Fig2Chip
	for i := 0; i < chips; i++ {
		for _, pol := range []struct {
			res *hayat.LifetimeResult
			dcm string
		}{
			{ps.VAA.Results[i], "contiguous (DCM-1)"},
			{ps.Hayat.Results[i], "optimised (DCM-2)"},
		} {
			fc := Fig2Chip{
				ChipSeed:   pol.res.ChipSeed,
				DCMName:    pol.dcm,
				Rows:       cfg.Rows,
				Cols:       cfg.Cols,
				FreqYr0:    pol.res.InitialFMax,
				FreqYr10:   pol.res.FinalFMax,
				TempSteady: pol.res.FinalTemps,
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
func RenderFig2Maps(c Fig2Chip) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chip-%d, %s\n", c.ChipSeed, c.DCMName)
	fmt.Fprintf(&b, "frequency @ year 0 [GHz]:\n%s", report.NumericMap(scale(c.FreqYr0, 1e-9), c.Rows, c.Cols, "%4.2f"))
	fmt.Fprintf(&b, "frequency @ year 10 [GHz]:\n%s", report.NumericMap(scale(c.FreqYr10, 1e-9), c.Rows, c.Cols, "%4.2f"))
	fmt.Fprintf(&b, "steady-state temperature heat map (scale %.1f–%.1f K):\n%s",
		minOf(c.TempSteady), maxOf(c.TempSteady),
		report.HeatMap(c.TempSteady, c.Rows, c.Cols, 0, 0))
	return b.String()
}

// ---------------------------------------------------------------------------
// E4–E7 — Figs. 7–10: populations at 25 % and 50 % dark silicon.

// PairSummary is the Hayat/VAA population pair at one dark fraction,
// simulated under Config(Dark, Years). Every population figure of the
// campaign is derived from such pairs.
type PairSummary struct {
	Dark, Years float64
	Hayat, VAA  *hayat.PopulationResult
	Comparison  hayat.Comparison
}

// holds reports an error unless the pair holds at least chips chips.
func (ps PairSummary) holds(chips int) error {
	if chips > ps.Hayat.Chips {
		return fmt.Errorf("experiments: %d-chip pair at %d%% dark, want %d chips", ps.Hayat.Chips, int(ps.Dark*100), chips)
	}
	return nil
}

// RunPair runs both policies over chips baseSeed, baseSeed+1, … at one
// dark fraction.
func RunPair(cache *hayat.ArtifactCache, baseSeed int64, chips int, dark, years float64) (PairSummary, error) {
	sys, err := hayat.NewSystemWith(Config(dark, years), cache)
	if err != nil {
		return PairSummary{}, err
	}
	h, err := sys.RunPopulation(baseSeed, chips, hayat.PolicyHayat)
	if err != nil {
		return PairSummary{}, err
	}
	v, err := sys.RunPopulation(baseSeed, chips, hayat.PolicyVAA)
	if err != nil {
		return PairSummary{}, err
	}
	c, err := hayat.Compare(h, v)
	if err != nil {
		return PairSummary{}, err
	}
	return PairSummary{Dark: dark, Years: years, Hayat: h, VAA: v, Comparison: c}, nil
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
		ps.Hayat.ChipFMaxAging/1e6, ps.VAA.ChipFMaxAging/1e6,
		ps.Hayat.AvgFMaxAging/1e6, ps.VAA.AvgFMaxAging/1e6)
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
			ext, thr := hayat.LifetimeExtension(ps.Hayat, ps.VAA, ry)
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

// ghz converts Hz to GHz for the SVG charts. It divides where scale
// multiplies by 1e-9, which can differ in the last bit.
func ghz(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / 1e9
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
func SVGFig2Temps(c Fig2Chip) string {
	return report.SVGHeatMap(
		fmt.Sprintf("Fig. 2: chip-%d steady-state temperature, %s", c.ChipSeed, c.DCMName),
		c.TempSteady, c.Rows, c.Cols, 0, 0)
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
	return report.SVGLineChart(
		fmt.Sprintf("Fig. 11: average frequency over lifetime (%d%% dark)", int(ps.Dark*100)),
		"years", "average fmax [GHz]",
		[]report.Series{
			{Name: "Hayat", X: ps.Hayat.Years, Y: ghz(ps.Hayat.AvgFMaxSeries)},
			{Name: "VAA", X: ps.VAA.Years, Y: ghz(ps.VAA.AvgFMaxSeries)},
		})
}

// SVGFig2Freq10 renders one Fig. 2 year-10 frequency map in GHz.
func SVGFig2Freq10(c Fig2Chip) string {
	return report.SVGHeatMap(
		fmt.Sprintf("chip-%d %s: fmax @ year 10 [GHz]", c.ChipSeed, c.DCMName),
		ghz(c.FreqYr10), c.Rows, c.Cols, 0, 0)
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

// Guardband returns per-chip rows for the first chips of a population
// pair, plus a rendered table. Each chip is built again, on the platform
// cache holds, for its static term.
func Guardband(cache *hayat.ArtifactCache, ps PairSummary, chips int) ([]GuardbandRow, string, error) {
	if err := ps.holds(chips); err != nil {
		return nil, "", err
	}
	cfg := Config(ps.Dark, ps.Years)
	sys, err := hayat.NewSystemWith(cfg, cache)
	if err != nil {
		return nil, "", err
	}
	var rows []GuardbandRow
	for i := 0; i < chips; i++ {
		chip, err := sys.NewChip(ps.Hayat.Results[i].ChipSeed)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, GuardbandRow{
			ChipSeed: chip.Seed(),
			Static:   1 - chip.AgingFactor(cfg.TSafe, 1.0, ps.Years),
			Hayat:    worstDegradation(ps.Hayat.Results[i]),
			VAA:      worstDegradation(ps.VAA.Results[i]),
		})
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

// worstDegradation is the largest per-core frequency loss of a lifetime.
func worstDegradation(res *hayat.LifetimeResult) float64 {
	worst := 0.0
	for _, h := range res.FinalHealth {
		if d := 1 - h; d > worst {
			worst = d
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// Speed-grade binning (the cherry-picking [26] view): how many premium
// cores survive the lifetime under each policy.

// BinShift returns the rendered grade-shift report of the first chips
// of a population pair.
func BinShift(ps PairSummary, chips int) (string, error) {
	if err := ps.holds(chips); err != nil {
		return "", err
	}
	bins := binning.Default()
	var out strings.Builder
	for _, pop := range []*hayat.PopulationResult{ps.VAA, ps.Hayat} {
		var before, after []float64
		for _, res := range pop.Results[:chips] {
			before = append(before, res.InitialFMax...)
			after = append(after, res.FinalFMax...)
		}
		shift, err := bins.ComputeShift(before, after)
		if err != nil {
			return "", err
		}
		out.WriteString(bins.Render(
			fmt.Sprintf("%s: core speed grades, year 0 → year %.0f (%d chips, %d cores)",
				pop.Policy, ps.Years, chips, len(before)), shift))
		out.WriteByte('\n')
	}
	return out.String(), nil
}
