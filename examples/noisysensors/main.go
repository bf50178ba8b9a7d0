// Noisy sensors: the paper assumes ideal aging sensors / health monitors
// [9, 10]. This example exercises the robustness extension: the policy
// sees per-core maximum frequencies corrupted by multiplicative Gaussian
// noise (hayat.Config.SensorNoiseSigma), and the engine counts how often
// a thread ends up on a core whose TRUE aged frequency cannot satisfy
// its requirement (hayat.Epoch.Violations).
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "chip seed")
	years := flag.Float64("years", 5, "simulated lifetime")
	flag.Parse()

	// The platform is built once and shared by every noise level; each
	// level draws the same chip from it.
	cache := hayat.NewArtifactCache()

	fmt.Printf("%10s %12s %12s %14s %12s\n",
		"noise σ", "violations", "unmapped", "avgF@end[GHz]", "minHealth")
	for _, sigma := range []float64{0, 0.02, 0.05, 0.10, 0.20} {
		cfg := experiments.Config(0.50, *years)
		cfg.SensorNoiseSigma = sigma
		sys, err := hayat.NewSystemWith(cfg, cache)
		if err != nil {
			log.Fatal(err)
		}
		chip, err := sys.NewChip(*seed)
		if err != nil {
			log.Fatal(err)
		}
		res, err := chip.RunLifetime(hayat.PolicyHayat)
		if err != nil {
			log.Fatal(err)
		}
		violations, unmapped := 0, 0
		for _, ep := range res.Epochs {
			violations += ep.Violations
			unmapped += ep.Unmapped
		}
		last := res.Epochs[len(res.Epochs)-1]
		fmt.Printf("%10.2f %12d %12d %14.3f %12.4f\n",
			sigma, violations, unmapped, last.AvgFMax/1e9, last.MinHealth)
	}
}
