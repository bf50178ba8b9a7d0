// Command hayatsim runs one lifetime simulation on one chip and prints
// per-epoch health, frequency and thermal statistics.
//
// Usage:
//
//	hayatsim -policy hayat -seed 1 -dark 0.5 -years 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/persist"
)

func main() {
	policyName := flag.String("policy", "hayat", "mapping policy: hayat or vaa")
	seed := flag.Int64("seed", 1, "chip manufacturing seed")
	dark := flag.Float64("dark", 0.50, "minimum dark-silicon fraction")
	years := flag.Float64("years", 10, "simulated lifetime in years")
	epoch := flag.Float64("epoch", 0.25, "aging-epoch length in years")
	maps := flag.Bool("maps", false, "print initial/final frequency maps")
	jsonPath := flag.String("json", "", "write the full result as JSON to this file")
	tracePath := flag.String("trace", "", "write a fine-grained temperature/power trace (TSV) to this file")
	traceCores := flag.String("tracecores", "0", "comma-separated core indices to trace")
	checkpointPath := flag.String("checkpoint", "", "write a checkpoint to this file after -checkpoint-at epochs and exit")
	checkpointAt := flag.Int("checkpoint-at", 0, "epoch at which to checkpoint: a remix boundary above 0 and below the lifetime's epoch count")
	resumePath := flag.String("resume", "", "resume a checkpointed run from this file")
	flag.Parse()

	if err := run(*policyName, *seed, *dark, *years, *epoch, *maps, *jsonPath, *tracePath, *traceCores, *checkpointPath, *checkpointAt, *resumePath); err != nil {
		fmt.Fprintln(os.Stderr, "hayatsim:", err)
		os.Exit(1)
	}
}

// parseCores parses a comma-separated index list.
func parseCores(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad core index %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(policyName string, seed int64, dark, years, epoch float64, maps bool, jsonPath, tracePath, traceCores, checkpointPath string, checkpointAt int, resumePath string) error {
	pol, err := hayat.ParsePolicy(policyName)
	if err != nil {
		return err
	}

	cfg := hayat.DefaultConfig()
	cfg.DarkFraction = dark
	cfg.Years = years
	cfg.EpochYears = epoch
	sys, err := hayat.NewSystem(cfg)
	if err != nil {
		return err
	}
	chip, err := sys.NewChip(seed)
	if err != nil {
		return err
	}
	fmt.Printf("chip seed %d: frequency spread %.1f%%, %d cores, %s policy, %.0f%% dark\n",
		seed, chip.FrequencySpread()*100, sys.Cores(), pol, dark*100)

	ctx := context.Background()
	if checkpointPath != "" {
		return writeCheckpoint(ctx, chip, pol, checkpointAt, cfg.RemixEpochs, checkpointPath)
	}

	var res *hayat.LifetimeResult
	if resumePath != "" {
		from, err := os.ReadFile(resumePath)
		if err != nil {
			return fmt.Errorf("reading checkpoint: %w", err)
		}
		res, err = chip.RunLifetimeWithCheckpoints(ctx, pol, from, 0, nil)
		if err != nil {
			return err
		}
		fmt.Printf("resumed from %s\n", resumePath)
	} else if tracePath != "" {
		cores, err := parseCores(traceCores)
		if err != nil {
			return err
		}
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		res, err = chip.RunLifetimeTraced(ctx, pol, f, cores, 5)
		if err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", tracePath)
	} else {
		var err error
		res, err = chip.RunLifetimeContext(ctx, pol)
		if err != nil {
			return err
		}
	}

	fmt.Printf("%6s %8s %9s %9s %9s %8s %8s %5s\n",
		"epoch", "years", "avgHealth", "avgF[GHz]", "maxF[GHz]", "Tavg[K]", "Tpeak[K]", "DTM")
	for _, e := range res.Epochs {
		fmt.Printf("%6d %8.2f %9.4f %9.3f %9.3f %8.2f %8.2f %5d\n",
			e.Index, e.YearsElapsed, e.AvgHealth, e.AvgFMax/1e9, e.MaxFMax/1e9,
			e.AvgTemp, e.PeakTemp, e.DTMEvents)
	}
	fmt.Printf("total DTM events: %d (migrations %d, throttles %d)\n",
		res.DTMEvents(), res.DTMMigrations, res.DTMThrottles)

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("result written to %s\n", jsonPath)
	}

	if maps {
		ghz := func(v []float64) []float64 {
			out := make([]float64, len(v))
			for i, f := range v {
				out[i] = f / 1e9
			}
			return out
		}
		fmt.Printf("\ninitial frequencies [GHz]:\n%s", sys.RenderNumericMap(ghz(res.InitialFMax), "%4.2f"))
		fmt.Printf("\nfinal frequencies [GHz]:\n%s", sys.RenderNumericMap(ghz(res.FinalFMax), "%4.2f"))
		fmt.Printf("\nhealth heat map (dark = healthy):\n%s", sys.RenderHeatMap(res.FinalHealth, 0, 0))
	}
	return nil
}

// errCheckpointWritten stops a -checkpoint run once its checkpoint is on
// disk; writeCheckpoint reports it as success.
var errCheckpointWritten = errors.New("checkpoint written")

// writeCheckpoint runs the first n epochs, writes the checkpoint there to
// path and stops. The file is written atomically (temp file, fsync,
// rename), so an interrupted run never leaves a torn checkpoint behind.
// The sink first fires at the first remix boundary at or after n, so n
// must be that boundary, and 0 < n < the lifetime's epoch count: a
// checkpoint before any work or after all of it splits nothing.
func writeCheckpoint(ctx context.Context, chip *hayat.Chip, pol hayat.Policy, n, remixEpochs int, path string) error {
	if n <= 0 {
		return fmt.Errorf("-checkpoint-at %d: want an epoch above 0", n)
	}
	res, err := chip.RunLifetimeWithCheckpoints(ctx, pol, nil, n, func(next int, data []byte) error {
		if next != n {
			return fmt.Errorf("checkpoint epoch %d is not a remix boundary (RemixEpochs=%d)", n, remixEpochs)
		}
		if err := persist.WriteFileAtomic(path, data, ""); err != nil {
			return fmt.Errorf("writing checkpoint: %w", err)
		}
		return errCheckpointWritten
	})
	switch {
	case errors.Is(err, errCheckpointWritten):
		fmt.Printf("checkpoint after %d epochs written to %s\n", n, path)
		return nil
	case err != nil:
		return err
	default:
		return fmt.Errorf("-checkpoint-at %d: want an epoch below the lifetime's %d", n, len(res.Epochs))
	}
}
