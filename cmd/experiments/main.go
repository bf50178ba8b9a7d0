// Command experiments regenerates every table and figure of the paper's
// evaluation. Each figure is selectable; "all" runs the whole campaign.
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
	// One cache for the whole campaign: every figure and dark fraction
	// reuses a chip's predictor and aging table while the population
	// fits the cache's per-chip capacity.
	cache := hayat.NewArtifactCache()
	switch fig {
	case "1a":
		return fig1a()
	case "1b":
		return fig1b()
	case "2", "2o":
		return fig2(cache, baseSeed, years, fig == "2")
	case "7", "8", "9", "10", "7-10":
		_, err := pairs(cache, baseSeed, chips, years, true)
		return err
	case "11":
		ps, err := pairs(cache, baseSeed, chips, years, false)
		if err != nil {
			return err
		}
		return fig11(ps, years)
	case "11maps":
		return fig11maps(cache, baseSeed, years)
	case "guardband":
		return guardband(cache, baseSeed, chips, years)
	case "bins":
		return bins(cache, baseSeed, chips, years)
	case "all":
		if err := fig1a(); err != nil {
			return err
		}
		if err := fig1b(); err != nil {
			return err
		}
		if err := fig2(cache, baseSeed, years, true); err != nil {
			return err
		}
		ps, err := pairs(cache, baseSeed, chips, years, true)
		if err != nil {
			return err
		}
		if err := fig11(ps, years); err != nil {
			return err
		}
		if err := fig11maps(cache, baseSeed, years); err != nil {
			return err
		}
		if err := guardband(cache, baseSeed, chips, years); err != nil {
			return err
		}
		return bins(cache, baseSeed, chips, years)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
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

func fig2(cache *hayat.ArtifactCache, baseSeed int64, years float64, withMaps bool) error {
	fmt.Println("=== Fig. 2: DCM aging & thermal analysis (two chips, 50% dark) ===")
	res, err := experiments.Fig2(cache, []int64{baseSeed, baseSeed + 1}, years)
	if err != nil {
		return err
	}
	if withMaps {
		for _, c := range res {
			fmt.Println(experiments.RenderFig2Maps(c))
		}
	}
	for i, c := range res {
		writeSVG(fmt.Sprintf("fig2_temp_%d.svg", i), experiments.SVGFig2Temps(c))
		writeSVG(fmt.Sprintf("fig2_freq10_%d.svg", i), experiments.SVGFig2Freq10(c))
	}
	fmt.Println("Fig. 2(o) table:")
	fmt.Print(experiments.Fig2oTable(res))
	fmt.Println()
	return nil
}

func pairs(cache *hayat.ArtifactCache, baseSeed int64, chips int, years float64, render bool) ([]experiments.PairSummary, error) {
	var out []experiments.PairSummary
	for _, dark := range []float64{0.25, 0.50} {
		ps, err := experiments.RunPair(cache, baseSeed, chips, dark, years)
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
		if render {
			fmt.Printf("=== Figs. 7–10 (%d chips, %.0f years) ===\n", chips, years)
			fmt.Print(experiments.RenderBars(ps))
			fmt.Println()
		}
		writeSVG(fmt.Sprintf("fig7to10_dark%d.svg", int(dark*100)), experiments.SVGFigBars(ps))
		writeSVG(fmt.Sprintf("fig11_dark%d.svg", int(dark*100)), experiments.SVGFig11(ps))
	}
	return out, nil
}

func fig11(ps []experiments.PairSummary, years float64) error {
	fmt.Println("=== Fig. 11 (right): average frequency over the lifetime ===")
	fmt.Print(experiments.Fig11Series(ps))
	fmt.Println("=== Fig. 11: lifetime extension vs required lifetime ===")
	req := []float64{3}
	if years >= 10 {
		req = append(req, 10)
	}
	fmt.Print(experiments.Fig11Lifetimes(ps, req))
	fmt.Println()
	return nil
}

func fig11maps(cache *hayat.ArtifactCache, baseSeed int64, years float64) error {
	fmt.Println("=== Fig. 11 (left): aged frequency maps after the lifetime ===")
	for _, dark := range []float64{0.25, 0.50} {
		sys, err := hayat.NewSystemWith(experiments.Config(dark, years), cache)
		if err != nil {
			return err
		}
		chip, err := sys.NewChip(baseSeed)
		if err != nil {
			return err
		}
		for _, pol := range []hayat.Policy{hayat.PolicyVAA, hayat.PolicyHayat} {
			res, err := chip.RunLifetime(pol)
			if err != nil {
				return err
			}
			ghz := make([]float64, len(res.FinalFMax))
			for i, f := range res.FinalFMax {
				ghz[i] = f / 1e9
			}
			fmt.Printf("%s @ %d%% dark, year %.0f [GHz]:\n", pol, int(dark*100), years)
			fmt.Print(sys.RenderNumericMap(ghz, "%4.2f"))
			fmt.Println()
		}
	}
	return nil
}

func guardband(cache *hayat.ArtifactCache, baseSeed int64, chips int, years float64) error {
	fmt.Println("=== Guardband analysis: design-time reserve vs run-time management ===")
	if chips > 5 {
		chips = 5 // per-chip table; a handful illustrates the point
	}
	_, table, err := experiments.Guardband(cache, baseSeed, chips, years)
	if err != nil {
		return err
	}
	fmt.Print(table)
	fmt.Println()
	return nil
}

func bins(cache *hayat.ArtifactCache, baseSeed int64, chips int, years float64) error {
	fmt.Println("=== Speed-grade binning: premium-core survival ===")
	if chips > 5 {
		chips = 5
	}
	out, err := experiments.BinShift(cache, baseSeed, chips, years)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
