package core

import (
	"testing"

	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/testutil"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.AlphaEarly = 0 },
		func(c *Config) { c.AlphaLate = -1 },
		func(c *Config) { c.BetaEarly = -0.1 },
		func(c *Config) { c.WMax = 0 },
		func(c *Config) { c.LateAgingThreshold = 0 },
		func(c *Config) { c.LateAgingThreshold = 1.5 },
		func(c *Config) { c.AffectedDeltaK = -1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	invalid := DefaultConfig()
	invalid.WMax = 0
	if _, err := New(invalid); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestMapBasicInvariants(t *testing.T) {
	fx := testutil.NewFixture(t, 1)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 3, ctx.MaxOnCores, 4)
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	asg := res.Assignment
	if err := asg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Eq. 5: one thread per core — Validate covers it; also every thread
	// is either mapped or reported unmapped.
	if asg.NumAssigned()+len(res.Unmapped) != len(threads) {
		t.Fatalf("mapped %d + unmapped %d != %d threads", asg.NumAssigned(), len(res.Unmapped), len(threads))
	}
	// Dark-silicon budget.
	if asg.NumAssigned() > ctx.MaxOnCores {
		t.Fatalf("powered %d cores, budget %d", asg.NumAssigned(), ctx.MaxOnCores)
	}
	// Frequency requirements: every mapped thread sits on a fast-enough
	// core.
	for i := 0; i < asg.N(); i++ {
		th := asg.ThreadOn(i)
		if th == nil {
			continue
		}
		if ctx.FMax[i] < th.MinFreq() {
			t.Fatalf("core %d (%.2f GHz) runs thread needing %.2f GHz",
				i, ctx.FMax[i]/1e9, th.MinFreq()/1e9)
		}
	}
	if asg.NumAssigned() == 0 {
		t.Fatal("nothing was mapped")
	}
}

func TestMapRespectsTSafe(t *testing.T) {
	fx := testutil.NewFixture(t, 2)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 5, ctx.MaxOnCores, 4)
	h, _ := New(DefaultConfig())
	res, err := h.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	// Re-predict the final mapping's thermal profile and check Eq. 4.
	n := ctx.N()
	pdyn := make([]float64, n)
	on := make([]bool, n)
	for i := 0; i < n; i++ {
		if th := res.Assignment.ThreadOn(i); th != nil {
			pdyn[i] = ctx.ThreadDynPower(th)
			on[i] = true
		}
	}
	temps := ctx.Predictor.Predict(nil, nil, pdyn, on)
	for i, T := range temps {
		if T > ctx.TSafe {
			t.Fatalf("core %d predicted at %v K above TSafe", i, T)
		}
	}
}

func TestMapDeterministic(t *testing.T) {
	fx := testutil.NewFixture(t, 3)
	h, _ := New(DefaultConfig())
	run := func() []int {
		ctx := fx.Context(0.50)
		threads := testutil.Threads(t, 7, ctx.MaxOnCores, 4)
		res, err := h.Map(ctx, threads)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 0, res.Assignment.NumAssigned())
		for i := 0; i < res.Assignment.N(); i++ {
			if res.Assignment.ThreadOn(i) != nil {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic mapping size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic mapping")
		}
	}
}

func TestMapPreservesFastestCores(t *testing.T) {
	// With slack in the budget and threads whose requirements are modest,
	// Hayat's frequency-matching term must leave the chip's fastest cores
	// dark (preserved for later years / critical work).
	fx := testutil.NewFixture(t, 4)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 11, 24, 3) // fewer threads than budget
	h, _ := New(DefaultConfig())
	res, err := h.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	fastest := 0
	for i, f := range fx.Chip.FMax0 {
		if f > fx.Chip.FMax0[fastest] {
			fastest = i
		}
	}
	if res.Assignment.ThreadOn(fastest) != nil {
		th := res.Assignment.ThreadOn(fastest)
		// Only acceptable if the thread genuinely needs (nearly) that
		// speed.
		if ctx.FMax[fastest]-th.MinFreq() > 0.4e9 {
			t.Fatalf("fastest core %d burned on a thread needing only %.2f GHz (core: %.2f GHz)",
				fastest, th.MinFreq()/1e9, ctx.FMax[fastest]/1e9)
		}
	}
}

func TestMapUnmappableThreadReported(t *testing.T) {
	fx := testutil.NewFixture(t, 5)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 3, ctx.MaxOnCores, 4)
	// Make every core too slow for everything.
	for i := range ctx.FMax {
		ctx.FMax[i] = 1e8
	}
	h, _ := New(DefaultConfig())
	res, err := h.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unmapped) != len(threads) {
		t.Fatalf("unmapped %d of %d", len(res.Unmapped), len(threads))
	}
	if res.Assignment.NumAssigned() != 0 {
		t.Fatal("threads mapped to too-slow cores")
	}
}

func TestMapInvalidContextRejected(t *testing.T) {
	fx := testutil.NewFixture(t, 1)
	ctx := fx.Context(0.50)
	ctx.TSafe = 0
	h, _ := New(DefaultConfig())
	if _, err := h.Map(ctx, nil); err == nil {
		t.Fatal("invalid context accepted")
	}
}

func TestWeightPresetSwitch(t *testing.T) {
	h, _ := New(DefaultConfig())
	aE, bE := h.weights(1.0)
	if aE != DefaultConfig().AlphaEarly || bE != DefaultConfig().BetaEarly {
		t.Fatalf("early preset = (%v, %v)", aE, bE)
	}
	aL, bL := h.weights(0.90)
	if aL != DefaultConfig().AlphaLate || bL != DefaultConfig().BetaLate {
		t.Fatalf("late preset = (%v, %v)", aL, bL)
	}
}

func TestMapSpreadsComparedToContiguous(t *testing.T) {
	// Hayat's mapping should be less clustered than a contiguous packing
	// of the same thread count: average Manhattan nearest-neighbour
	// distance among powered cores must exceed 1 (contiguous packing has
	// exactly 1).
	fx := testutil.NewFixture(t, 6)
	ctx := fx.Context(0.50)
	threads := testutil.Threads(t, 13, ctx.MaxOnCores, 4)
	h, _ := New(DefaultConfig())
	res, err := h.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	var on []int
	for i := 0; i < res.Assignment.N(); i++ {
		if res.Assignment.ThreadOn(i) != nil {
			on = append(on, i)
		}
	}
	if len(on) < 8 {
		t.Skipf("only %d cores mapped", len(on))
	}
	sum := 0.0
	for _, i := range on {
		min := 1 << 30
		for _, j := range on {
			if i == j {
				continue
			}
			if d := fx.FP.ManhattanDistance(i, j); d < min {
				min = d
			}
		}
		sum += float64(min)
	}
	if avg := sum / float64(len(on)); avg <= 1.0 {
		t.Fatalf("average NN distance %.3f — mapping fully clustered", avg)
	}
}

func TestEstimateNextHealth(t *testing.T) {
	fx := testutil.NewFixture(t, 1)
	ctx := fx.Context(0.50)
	h0 := EstimateNextHealth(ctx, 0, 360, 0.8)
	if h0 >= 1 || h0 <= 0 {
		t.Fatalf("next health = %v", h0)
	}
	// Hotter prediction → worse health.
	if h1 := EstimateNextHealth(ctx, 0, 400, 0.8); h1 >= h0 {
		t.Fatalf("hotter estimate %v not worse than %v", h1, h0)
	}
}

var _ policy.Policy = (*Hayat)(nil)

func TestMapIncrementalPreservesExisting(t *testing.T) {
	fx := testutil.NewFixture(t, 7)
	ctx := fx.Context(0.50)
	h, _ := New(DefaultConfig())
	// Initial mapping of a small mix.
	initial := testutil.Threads(t, 21, 16, 2)
	res, err := h.Map(ctx, initial)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Assignment
	placedBefore := before.NumAssigned()
	if placedBefore == 0 {
		t.Fatal("initial mapping empty")
	}
	// A new application arrives mid-epoch.
	arrivals := testutil.Threads(t, 22, 8, 1)
	res2, err := h.MapIncremental(ctx, before, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	after := res2.Assignment
	if err := after.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every previously running thread stays on its core.
	for i := 0; i < before.N(); i++ {
		if th := before.ThreadOn(i); th != nil && after.ThreadOn(i) != th {
			t.Fatalf("incremental placement disturbed core %d", i)
		}
	}
	// The new threads were placed (budget permitting).
	if after.NumAssigned() <= placedBefore && len(res2.Unmapped) == len(arrivals) {
		t.Fatal("no arrival was placed despite available budget")
	}
	// The input assignment was not mutated.
	if before.NumAssigned() != placedBefore {
		t.Fatal("MapIncremental mutated the existing assignment")
	}
	// Budget still respected.
	if after.NumAssigned() > ctx.MaxOnCores {
		t.Fatal("budget exceeded")
	}
}

func TestMapIncrementalSizeMismatch(t *testing.T) {
	fx := testutil.NewFixture(t, 7)
	ctx := fx.Context(0.50)
	h, _ := New(DefaultConfig())
	if _, err := h.MapIncremental(ctx, mapping.New(4), nil); err == nil {
		t.Fatal("mismatched assignment size accepted")
	}
}

func TestMapHonoursDVFSLadder(t *testing.T) {
	fx := testutil.NewFixture(t, 8)
	ctx := fx.Context(0.50)
	ladder, err := dvfs.Uniform(1.0e9, 4.0e9, 7) // 0.5 GHz steps
	if err != nil {
		t.Fatal(err)
	}
	ctx.FreqLevels = ladder
	threads := testutil.Threads(t, 31, ctx.MaxOnCores, 4)
	h, _ := New(DefaultConfig())
	res, err := h.Map(ctx, threads)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Assignment.N(); i++ {
		th := res.Assignment.ThreadOn(i)
		if th == nil {
			continue
		}
		reqF, ok := ctx.RequiredFreq(th)
		if !ok {
			t.Fatalf("mapped thread has no feasible ladder level")
		}
		if reqF < th.MinFreq() {
			t.Fatalf("ladder rounded down: %v < %v", reqF, th.MinFreq())
		}
		if ctx.FMax[i] < reqF {
			t.Fatalf("core %d (%.2f GHz) cannot sustain the quantised %.2f GHz", i, ctx.FMax[i]/1e9, reqF/1e9)
		}
	}
}
