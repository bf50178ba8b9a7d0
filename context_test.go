package hayat

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// tinyConfig keeps context/population tests fast: a 4×4 grid over one
// year.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Years = 1
	cfg.WindowSeconds = 1
	cfg.MixApps = 2
	return cfg
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"hayat": PolicyHayat, "Hayat": PolicyHayat, " HAYAT ": PolicyHayat,
		"vaa": PolicyVAA, "VAA": PolicyVAA,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("greedy"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.DutyMode = "sometimes"
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid duty mode should fail validation")
	}
}

// Validate checks the aging-model name alone: hayatd runs it on every
// submit and batch item, so it must not build a gate-path set or a model.
func TestConfigValidateAgingModelName(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range []string{"", "nbti", "nbti+hci"} {
		cfg.AgingModel = name
		if err := cfg.Validate(); err != nil {
			t.Fatalf("aging model %q: %v", name, err)
		}
	}
	cfg.AgingModel = "magic"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown aging model passed validation")
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = DefaultConfig().Validate() }); allocs > 20 {
		t.Fatalf("Validate allocates %.0f times per call, want at most 20", allocs)
	}
}

func TestRunLifetimeContextCancelled(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = chip.RunLifetimeContext(ctx, PolicyHayat)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("cancellation error should name the epoch reached, got %q", err)
	}
	// The same chip still runs fine without cancellation.
	if _, err := chip.RunLifetimeContext(context.Background(), PolicyHayat); err != nil {
		t.Fatal(err)
	}
}

func TestRunPopulationContextCancelledUpfront(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunPopulationContext(ctx, 1, 4, PolicyHayat, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunPopulationAbortsOnCancellation(t *testing.T) {
	sys, err := NewSystemWith(tinyConfig(), NewArtifactCache())
	if err != nil {
		t.Fatal(err)
	}
	// More chips than workers, so some are still queued when the first
	// completion cancels the run: those must never simulate.
	chips := runtime.GOMAXPROCS(0) + 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	_, err = sys.RunPopulationContext(ctx, 1, chips, PolicyHayat, func(done, total int) {
		completed.Store(int64(done))
		cancel()
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := completed.Load(); n >= int64(chips) {
		t.Fatalf("cancellation did not abort outstanding chips (%d of %d completed)", n, chips)
	}
}

func TestRunPopulationProgressReporting(t *testing.T) {
	sys, err := NewSystemWith(tinyConfig(), NewArtifactCache())
	if err != nil {
		t.Fatal(err)
	}
	const chips = 3
	var calls, last atomic.Int64
	pr, err := sys.RunPopulationContext(context.Background(), 1, chips, PolicyVAA, func(done, total int) {
		calls.Add(1)
		last.Store(int64(done))
		if total != chips {
			t.Errorf("progress total = %d, want %d", total, chips)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Chips != chips || len(pr.Results) != chips {
		t.Fatalf("population sized %d/%d, want %d", pr.Chips, len(pr.Results), chips)
	}
	if calls.Load() != chips || last.Load() != chips {
		t.Fatalf("progress called %d times (last done=%d), want %d", calls.Load(), last.Load(), chips)
	}
}

func TestArtifactCacheSharing(t *testing.T) {
	cache := NewArtifactCache()
	cfgA := tinyConfig()
	cfgB := tinyConfig()
	cfgB.DarkFraction = 0.25 // same grid, different experiment

	sysA, err := NewSystemWith(cfgA, cache)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewSystemWith(cfgB, cache)
	if err != nil {
		t.Fatal(err)
	}
	if sysA.tm != sysB.tm || sysA.gen != sysB.gen {
		t.Fatal("systems on the same grid should share thermal model and variation generator")
	}
	chipA, err := sysA.NewChip(7)
	if err != nil {
		t.Fatal(err)
	}
	chipB, err := sysB.NewChip(7)
	if err != nil {
		t.Fatal(err)
	}
	if chipA.pred != chipB.pred {
		t.Fatal("same (grid, seed) should share the learned predictor")
	}
	if chipA.tab != chipB.tab {
		t.Fatal("same (model, seed) should share the 3D aging table")
	}
	st := cache.Stats()
	if st.Platforms != 1 || st.Predictors != 1 || st.AgingTables != 1 {
		t.Fatalf("cache entries = %+v, want one of each", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache counters not moving: %+v", st)
	}

	// Cached artifacts must not change results: compare against an
	// uncached run.
	plain, err := NewSystem(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	chipP, err := plain.NewChip(7)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := chipA.RunLifetime(PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := chipP.RunLifetime(PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	var bufC, bufP bytes.Buffer
	if err := resC.WriteJSON(&bufC); err != nil {
		t.Fatal(err)
	}
	if err := resP.WriteJSON(&bufP); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufC.Bytes(), bufP.Bytes()) {
		t.Fatal("cached artifacts changed the simulation outcome")
	}
}

func TestPopulationWriteJSON(t *testing.T) {
	sys, err := NewSystemWith(tinyConfig(), NewArtifactCache())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sys.RunPopulation(5, 2, PolicyVAA)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"policy": "VAA"`, `"base_seed": 5`, `"chips": 2`, `"avg_fmax_series_hz"`} {
		if !strings.Contains(out, want) {
			t.Errorf("population JSON missing %s", want)
		}
	}
}
