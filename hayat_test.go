package hayat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// fastConfig shrinks the experiment for unit tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Years = 1
	cfg.WindowSeconds = 1.0
	return cfg
}

func TestPolicyString(t *testing.T) {
	if PolicyHayat.String() != "Hayat" || PolicyVAA.String() != "VAA" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy formatting")
	}
}

func TestNewSystemValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Rows = 0 },
		func(c *Config) { c.Cols = -1 },
		func(c *Config) { c.DarkFraction = 1.2 },
		func(c *Config) { c.Years = 0 },
		func(c *Config) { c.DutyMode = "sometimes" },
		func(c *Config) { c.TSafe = -5 },
		// Budgets below the smallest application's two threads.
		func(c *Config) { c.Rows, c.Cols = 1, 1 },
		func(c *Config) { c.Rows, c.Cols, c.DarkFraction = 2, 2, 0.75 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSystemAndChipBasics(t *testing.T) {
	sys, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cores() != 64 {
		t.Fatalf("Cores = %d", sys.Cores())
	}
	if sys.Ambient() < 300 || sys.Ambient() > 330 {
		t.Fatalf("Ambient = %v", sys.Ambient())
	}
	chip, err := sys.NewChip(42)
	if err != nil {
		t.Fatal(err)
	}
	if chip.Seed() != 42 {
		t.Fatalf("Seed = %d", chip.Seed())
	}
	f := chip.InitialFrequencies()
	if len(f) != 64 {
		t.Fatalf("len(freqs) = %d", len(f))
	}
	for i, v := range f {
		if v < 1.5e9 || v > 4.5e9 {
			t.Fatalf("core %d frequency %v implausible", i, v)
		}
	}
	if lf := chip.LeakageFactors(); len(lf) != 64 {
		t.Fatalf("len(leak) = %d", len(lf))
	}
	if sp := chip.FrequencySpread(); sp < 0.1 || sp > 0.6 {
		t.Fatalf("FrequencySpread = %v", sp)
	}
	// Accessors return copies.
	f[0] = 0
	if chip.InitialFrequencies()[0] == 0 {
		t.Fatal("InitialFrequencies returned shared storage")
	}
}

func TestRunLifetimePublicAPI(t *testing.T) {
	sys, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{PolicyHayat, PolicyVAA} {
		res, err := chip.RunLifetime(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Policy != p.String() || res.ChipSeed != 1 {
			t.Fatalf("result meta: %+v", res)
		}
		if len(res.Epochs) != 4 {
			t.Fatalf("%v: %d epochs", p, len(res.Epochs))
		}
		if res.DTMEvents() != res.DTMMigrations+res.DTMThrottles {
			t.Fatal("DTM accounting inconsistent")
		}
		f0 := res.AverageFrequencyAt(0)
		f1 := res.AverageFrequencyAt(1)
		if f1 >= f0 {
			t.Fatalf("%v: no aging (%v → %v)", p, f0, f1)
		}
		for i := range res.FinalHealth {
			if res.FinalHealth[i] <= 0 || res.FinalHealth[i] > 1 {
				t.Fatalf("health[%d] = %v", i, res.FinalHealth[i])
			}
		}
	}
	if _, err := chip.RunLifetime(Policy(77)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRunPopulationAndCompare(t *testing.T) {
	sys, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.RunPopulation(100, 2, PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.RunPopulation(100, 2, PolicyVAA)
	if err != nil {
		t.Fatal(err)
	}
	if h.Chips != 2 || len(h.Results) != 2 {
		t.Fatalf("population meta: %+v", h)
	}
	if len(h.Years) != len(h.AvgFMaxSeries) || len(h.Years) < 2 {
		t.Fatal("series malformed")
	}
	// Series non-increasing.
	for i := 1; i < len(h.AvgFMaxSeries); i++ {
		if h.AvgFMaxSeries[i] > h.AvgFMaxSeries[i-1]+1 {
			t.Fatal("series increases")
		}
	}
	c, err := Compare(h, v)
	if err != nil {
		t.Fatal(err)
	}
	if c.DarkFraction != sys.Config().DarkFraction {
		t.Fatalf("comparison dark fraction %v", c.DarkFraction)
	}
	if c.TempOverAmbientRatio <= 0 {
		t.Fatalf("temp ratio %v", c.TempOverAmbientRatio)
	}
	ext, thr := LifetimeExtension(h, v, 0.5)
	if thr <= 0 {
		t.Fatalf("threshold %v", thr)
	}
	if math.IsNaN(ext) {
		t.Fatal("extension NaN")
	}
	if _, err := sys.RunPopulation(1, 0, PolicyHayat); err == nil {
		t.Fatal("zero-chip population accepted")
	}
}

func TestRenderHelpers(t *testing.T) {
	sys, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i)
	}
	hm := sys.RenderHeatMap(vals, 0, 0)
	if lines := strings.Count(hm, "\n"); lines != 8 {
		t.Fatalf("heat map has %d lines", lines)
	}
	nm := sys.RenderNumericMap(vals, "%2.0f")
	if !strings.Contains(nm, "63") {
		t.Fatal("numeric map missing values")
	}
}

func TestDeterministicAcrossSystems(t *testing.T) {
	run := func() float64 {
		sys, err := NewSystem(fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		chip, err := sys.NewChip(5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chip.RunLifetime(PolicyHayat)
		if err != nil {
			t.Fatal(err)
		}
		return res.AverageFrequencyAt(1)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestAgingModelSelection(t *testing.T) {
	cfg := fastConfig()
	cfg.AgingModel = "nbti+hci"
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(1)
	if err != nil {
		t.Fatal(err)
	}
	resHCI, err := chip.RunLifetime(PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: NBTI only.
	cfg.AgingModel = "nbti"
	sys2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip2, err := sys2.NewChip(1)
	if err != nil {
		t.Fatal(err)
	}
	resNBTI, err := chip2.RunLifetime(PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	// The composite model must age the chip strictly faster.
	if resHCI.AverageFrequencyAt(1) >= resNBTI.AverageFrequencyAt(1) {
		t.Fatalf("HCI composite (%v) not faster-aging than NBTI-only (%v)",
			resHCI.AverageFrequencyAt(1), resNBTI.AverageFrequencyAt(1))
	}
	// Unknown model rejected at system construction.
	cfg.AgingModel = "magic"
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("unknown aging model accepted")
	}
}

func TestFreqLadderPublicAPI(t *testing.T) {
	cfg := fastConfig()
	cfg.FreqLadderGHz = []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.RunLifetime(PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Mapped == 0 {
		t.Fatal("nothing mapped under frequency ladder")
	}
	// Descending ladder must be rejected.
	cfg.FreqLadderGHz = []float64{3, 2}
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("descending ladder accepted")
	}
}

// errStop ends a run once checkpointAt holds its checkpoint.
var errStop = errors.New("checkpoint taken")

// checkpointAt runs the chip's first n epochs under p and returns the
// serialised checkpoint there. A sink that stops the run at its first call
// does it, as hayatsim's -checkpoint does: that call comes at the first
// remix boundary at or after n, which must be n itself.
func checkpointAt(t *testing.T, chip *Chip, p Policy, n int) []byte {
	t.Helper()
	var cp []byte
	_, err := chip.RunLifetimeWithCheckpoints(context.Background(), p, nil, n, func(next int, data []byte) error {
		if next != n {
			return fmt.Errorf("first checkpoint at epoch %d, want %d", next, n)
		}
		cp = data
		return errStop
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("checkpoint at epoch %d: %v", n, err)
	}
	return cp
}

func TestCheckpointedLifetimePublicAPI(t *testing.T) {
	cfg := fastConfig()
	cfg.RemixEpochs = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := chip.RunLifetime(PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	cp := checkpointAt(t, chip, PolicyHayat, 2)
	ctx := context.Background()
	resumed, err := chip.RunLifetimeWithCheckpoints(ctx, PolicyHayat, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Epochs) != len(full.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(resumed.Epochs), len(full.Epochs))
	}
	for i := range full.Epochs {
		if resumed.Epochs[i] != full.Epochs[i] {
			t.Fatalf("epoch %d differs after resume", i)
		}
	}
	// Wrong policy on resume is rejected, and so is a blob that is no
	// checkpoint at all.
	if _, err := chip.RunLifetimeWithCheckpoints(ctx, PolicyVAA, cp, 0, nil); err == nil {
		t.Fatal("cross-policy resume accepted")
	}
	if _, err := chip.RunLifetimeWithCheckpoints(ctx, PolicyHayat, []byte("nope"), 0, nil); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestLifetimeResultWriteJSON(t *testing.T) {
	sys, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.RunLifetime(PolicyVAA)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"policy": "VAA"`, `"epochs"`, `"final_health"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q", want)
		}
	}
}
