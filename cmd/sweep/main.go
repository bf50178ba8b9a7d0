// Command sweep runs an orthogonal parameter sweep — policies ×
// dark-silicon fractions × turbo mode — over a chip population and emits
// one TSV row per configuration. It is the batch companion to
// cmd/experiments: where experiments reproduces the paper's figures,
// sweep explores the design space around them.
//
// Usage:
//
//	sweep -chips 5 -years 5 > sweep.tsv
//	sweep -chips 3 -years 2 -dark 0.125,0.25,0.5 -turbo
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/experiments"
)

func main() {
	chips := flag.Int("chips", 5, "population size")
	years := flag.Float64("years", 5, "simulated lifetime")
	seed := flag.Int64("seed", 1, "base chip seed")
	darkSpec := flag.String("dark", "0.25,0.50", "comma-separated dark-silicon fractions")
	turbo := flag.Bool("turbo", false, "additionally sweep turbo boost on/off")
	flag.Parse()

	if err := run(*chips, *years, *seed, *darkSpec, *turbo); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func parseFloats(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty value list %q", spec)
	}
	return out, nil
}

func run(chips int, years float64, seed int64, darkSpec string, sweepTurbo bool) error {
	darks, err := parseFloats(darkSpec)
	if err != nil {
		return err
	}
	// Every configuration reuses a chip's predictor and aging table while
	// the population fits the cache's per-chip capacity.
	cache := hayat.NewArtifactCache()
	turboModes := []bool{false}
	if sweepTurbo {
		turboModes = append(turboModes, true)
	}

	fmt.Println("policy\tdark\tturbo\tdtm_events\tavg_f_end_ghz\tmax_f_end_ghz\tt_avg_k\tt_peak_k\tavg_gips\tmin_health")
	for _, dark := range darks {
		for _, tb := range turboModes {
			cfg := experiments.Config(dark, years)
			cfg.TurboBoost = tb
			cfg.TurboMarginK = 15
			sys, err := hayat.NewSystemWith(cfg, cache)
			if err != nil {
				return err
			}
			for _, pol := range []hayat.Policy{hayat.PolicyVAA, hayat.PolicyHayat} {
				pop, err := sys.RunPopulation(seed, chips, pol)
				if err != nil {
					return err
				}
				var dtm int
				var avgF, maxF, tAvg, tPeak, gips, minHealth float64
				minHealth = 1
				for _, res := range pop.Results {
					last := res.Epochs[len(res.Epochs)-1]
					dtm += res.DTMEvents()
					avgF += last.AvgFMax
					maxF += last.MaxFMax
					tPeak += last.PeakTemp
					if last.MinHealth < minHealth {
						minHealth = last.MinHealth
					}
					for _, ep := range res.Epochs {
						tAvg += ep.AvgTemp / float64(len(res.Epochs))
						gips += ep.AvgIPS / float64(len(res.Epochs))
					}
				}
				n := float64(chips)
				fmt.Printf("%s\t%.3f\t%v\t%d\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.4f\n",
					pol, dark, tb, dtm,
					avgF/n/1e9, maxF/n/1e9, tAvg/n, tPeak/n, gips/n/1e9, minHealth)
			}
		}
	}
	return nil
}
