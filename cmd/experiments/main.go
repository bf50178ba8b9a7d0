// Command experiments regenerates every table and figure of the paper's
// evaluation. Each figure is selectable; "all" runs the whole campaign,
// each lifetime once: its two Hayat/VAA population pairs (25 % and 50 %
// dark) run first, and every population figure is derived from them.
//
// Usage:
//
//	experiments -fig all -chips 25 -years 10
//	experiments -fig 7 -chips 10
//	experiments -fig 1b
//
// Figures: 1a, 1b, 2, 2o, 7-10 (one population run prints Figs. 7–10
// together), 11, 11maps, guardband, bins, all. Section VI's overhead
// numbers come from the root benchmarks (make bench-overhead).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/experiments"
)

// svgDir, when non-empty, receives SVG renderings of every figure.
var svgDir string

func writeSVG(name, content string) {
	if svgDir == "" {
		return
	}
	path := filepath.Join(svgDir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: writing", path, ":", err)
		return
	}
	fmt.Println("wrote", path)
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1a, 1b, 2, 2o, 7-10, 11, 11maps, guardband, bins, all")
	chips := flag.Int("chips", 25, "population size for Figs. 7-11")
	years := flag.Float64("years", 10, "simulated lifetime in years")
	baseSeed := flag.Int64("seed", 1, "base chip seed")
	svg := flag.String("svg", "", "directory to write SVG figures into (created if missing)")
	flag.Parse()
	if *svg != "" {
		if err := os.MkdirAll(*svg, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		svgDir = *svg
	}

	if err := run(*fig, *chips, *years, *baseSeed); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(fig string, chips int, years float64, baseSeed int64) error {
	c := &campaign{cache: hayat.NewArtifactCache(), baseSeed: baseSeed, years: years}
	switch fig {
	case "1a":
		return fig1a()
	case "1b":
		return fig1b()
	case "2", "2o":
		return c.fig2(fig == "2")
	case "7", "8", "9", "10", "7-10":
		ps, err := c.campaignPairs(chips)
		if err != nil {
			return err
		}
		renderPairs(ps, true)
		return nil
	case "11":
		ps, err := c.campaignPairs(chips)
		if err != nil {
			return err
		}
		renderPairs(ps, false)
		fig11(ps, years)
		return nil
	case "11maps":
		return c.fig11maps()
	case "guardband":
		return c.guardband(chips)
	case "bins":
		return c.bins(chips)
	case "all":
		// The two campaign pairs run first and once; every figure below
		// reads its lifetimes from them, printing in the standalone order.
		ps, err := c.campaignPairs(chips)
		if err != nil {
			return err
		}
		if err := fig1a(); err != nil {
			return err
		}
		if err := fig1b(); err != nil {
			return err
		}
		if err := c.fig2(true); err != nil {
			return err
		}
		renderPairs(ps, true)
		fig11(ps, years)
		if err := c.fig11maps(); err != nil {
			return err
		}
		if err := c.guardband(chips); err != nil {
			return err
		}
		return c.bins(chips)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

// campaign runs the Hayat/VAA population pairs every population figure
// is derived from. One artifact cache serves the whole campaign, so every
// figure and dark fraction shares the grid's platform; each chip builds
// its own predictor and aging table.
type campaign struct {
	cache    *hayat.ArtifactCache
	baseSeed int64
	years    float64
	pairs    map[float64]experiments.PairSummary // by dark fraction
}

// campaignPairs runs the pairs at 25 % and 50 % dark over chips chips and
// keeps them for the figures that follow.
func (c *campaign) campaignPairs(chips int) ([]experiments.PairSummary, error) {
	c.pairs = make(map[float64]experiments.PairSummary)
	var out []experiments.PairSummary
	for _, dark := range []float64{0.25, 0.50} {
		ps, err := experiments.RunPair(c.cache, c.baseSeed, chips, dark, c.years)
		if err != nil {
			return nil, err
		}
		c.pairs[dark] = ps
		out = append(out, ps)
	}
	return out, nil
}

// pair returns a pair at dark holding at least chips chips: a campaign
// pair when one is that large, else a pair of exactly chips chips run
// for the figure alone.
func (c *campaign) pair(dark float64, chips int) (experiments.PairSummary, error) {
	if ps, ok := c.pairs[dark]; ok && ps.Hayat.Chips >= chips {
		return ps, nil
	}
	return experiments.RunPair(c.cache, c.baseSeed, chips, dark, c.years)
}

func fig1a() error {
	fmt.Println("=== Fig. 1(a): short-term stress/recovery sawtooth (340 K) ===")
	pts, _, err := experiments.Fig1a(340)
	if err != nil {
		return err
	}
	// Print the per-cycle peaks and floors rather than the full trace.
	var peak float64
	prevStress := true
	for i, p := range pts {
		if p.Stressd && p.Shift > peak {
			peak = p.Shift
		}
		if i > 0 && prevStress && !p.Stressd {
			fmt.Printf("stress peak: %.2f mV\n", peak*1e3)
		}
		if i > 0 && !prevStress && p.Stressd {
			fmt.Printf("recovered floor: %.2f mV\n", pts[i-1].Shift*1e3)
		}
		prevStress = p.Stressd
	}
	fmt.Println()
	svg, err := experiments.SVGFig1a(340)
	if err != nil {
		return err
	}
	writeSVG("fig1a.svg", svg)
	return nil
}

func fig1b() error {
	fmt.Println("=== Fig. 1(b): temperature-dependent delay increase (duty 1.0) ===")
	_, tsv := experiments.Fig1b(1, 10)
	fmt.Print(tsv)
	fmt.Println()
	writeSVG("fig1b.svg", experiments.SVGFig1b(1, 10))
	return nil
}

func (c *campaign) fig2(withMaps bool) error {
	fmt.Println("=== Fig. 2: DCM aging & thermal analysis (two chips, 50% dark) ===")
	ps, err := c.pair(0.50, 2)
	if err != nil {
		return err
	}
	res, err := experiments.Fig2(ps, 2)
	if err != nil {
		return err
	}
	if withMaps {
		for _, fc := range res {
			fmt.Println(experiments.RenderFig2Maps(fc))
		}
	}
	for i, fc := range res {
		writeSVG(fmt.Sprintf("fig2_temp_%d.svg", i), experiments.SVGFig2Temps(fc))
		writeSVG(fmt.Sprintf("fig2_freq10_%d.svg", i), experiments.SVGFig2Freq10(fc))
	}
	fmt.Println("Fig. 2(o) table:")
	fmt.Print(experiments.Fig2oTable(res))
	fmt.Println()
	return nil
}

// renderPairs prints the Figs. 7–10 bars of each pair when render is set
// and writes its Figs. 7–10 and Fig. 11 SVGs.
func renderPairs(pairs []experiments.PairSummary, render bool) {
	for _, ps := range pairs {
		if render {
			fmt.Printf("=== Figs. 7–10 (%d chips, %.0f years) ===\n", ps.Hayat.Chips, ps.Years)
			fmt.Print(experiments.RenderBars(ps))
			fmt.Println()
		}
		writeSVG(fmt.Sprintf("fig7to10_dark%d.svg", int(ps.Dark*100)), experiments.SVGFigBars(ps))
		writeSVG(fmt.Sprintf("fig11_dark%d.svg", int(ps.Dark*100)), experiments.SVGFig11(ps))
	}
}

func fig11(ps []experiments.PairSummary, years float64) {
	fmt.Println("=== Fig. 11 (right): average frequency over the lifetime ===")
	fmt.Print(experiments.Fig11Series(ps))
	fmt.Println("=== Fig. 11: lifetime extension vs required lifetime ===")
	req := []float64{3}
	if years >= 10 {
		req = append(req, 10)
	}
	fmt.Print(experiments.Fig11Lifetimes(ps, req))
	fmt.Println()
}

func (c *campaign) fig11maps() error {
	fmt.Println("=== Fig. 11 (left): aged frequency maps after the lifetime ===")
	for _, dark := range []float64{0.25, 0.50} {
		ps, err := c.pair(dark, 1)
		if err != nil {
			return err
		}
		sys, err := hayat.NewSystemWith(experiments.Config(dark, c.years), c.cache)
		if err != nil {
			return err
		}
		for _, pop := range []*hayat.PopulationResult{ps.VAA, ps.Hayat} {
			res := pop.Results[0]
			ghz := make([]float64, len(res.FinalFMax))
			for i, f := range res.FinalFMax {
				ghz[i] = f / 1e9
			}
			fmt.Printf("%s @ %d%% dark, year %.0f [GHz]:\n", pop.Policy, int(dark*100), c.years)
			fmt.Print(sys.RenderNumericMap(ghz, "%4.2f"))
			fmt.Println()
		}
	}
	return nil
}

// shown is how many chips the per-chip guardband and binning reports
// show: a handful illustrates the point.
func shown(chips int) int { return min(chips, 5) }

func (c *campaign) guardband(chips int) error {
	fmt.Println("=== Guardband analysis: design-time reserve vs run-time management ===")
	ps, err := c.pair(0.50, shown(chips))
	if err != nil {
		return err
	}
	_, table, err := experiments.Guardband(c.cache, ps, shown(chips))
	if err != nil {
		return err
	}
	fmt.Print(table)
	fmt.Println()
	return nil
}

func (c *campaign) bins(chips int) error {
	fmt.Println("=== Speed-grade binning: premium-core survival ===")
	ps, err := c.pair(0.50, shown(chips))
	if err != nil {
		return err
	}
	out, err := experiments.BinShift(ps, shown(chips))
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
