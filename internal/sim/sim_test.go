package sim

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/kit-ces/hayat/internal/baseline"
	"github.com/kit-ces/hayat/internal/core"
	"github.com/kit-ces/hayat/internal/dtm"
	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/testutil"
)

// shortConfig keeps unit tests fast: 1 year in quarter epochs, short
// windows.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Years = 1
	cfg.WindowSeconds = 1.0
	cfg.StepSeconds = 0.02
	return cfg
}

func newEngine(t testing.TB, cfg Config, pol policy.Policy, chipSeed int64) *Engine {
	t.Helper()
	fx := testutil.NewFixture(t, chipSeed)
	e, err := New(cfg, pol, fx.Chip, fx.Thermal, fx.Power, fx.Predictor, fx.Table)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func hayatPolicy(t testing.TB) policy.Policy {
	t.Helper()
	h, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func vaaPolicy(t testing.TB) policy.Policy {
	t.Helper()
	v, err := baseline.New(baseline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.DarkFraction = -0.1 },
		func(c *Config) { c.DarkFraction = 1.0 },
		func(c *Config) { c.Years = 0 },
		func(c *Config) { c.EpochYears = 0 },
		func(c *Config) { c.EpochYears = c.Years * 2 },
		func(c *Config) { c.WindowSeconds = 0 },
		func(c *Config) { c.StepSeconds = 0 },
		func(c *Config) { c.StepSeconds = c.WindowSeconds * 2 },
		func(c *Config) { c.DTMEverySteps = 0 },
		func(c *Config) { c.DTM = dtm.Config{} },
		func(c *Config) { c.MixApps = 0 },
		func(c *Config) { c.RemixEpochs = -1 },
		// NaN passes every ordered range check; infinities overflow the
		// epoch and step counts.
		func(c *Config) { c.DarkFraction = math.NaN() },
		func(c *Config) { c.Years = math.NaN() },
		func(c *Config) { c.Years = math.Inf(1) },
		func(c *Config) { c.WindowSeconds = math.NaN() },
		func(c *Config) { c.SensorNoiseSigma = math.NaN() },
		func(c *Config) { c.SensorNoiseSigma = 2 },
		func(c *Config) { c.HorizonYears = -1 },
		func(c *Config) { c.DTM.TSafe = math.NaN() },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestNewRejectsNilDeps(t *testing.T) {
	fx := testutil.NewFixture(t, 1)
	cfg := shortConfig()
	if _, err := New(cfg, nil, fx.Chip, fx.Thermal, fx.Power, fx.Predictor, fx.Table); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(cfg, vaaPolicy(t), nil, fx.Thermal, fx.Power, fx.Predictor, fx.Table); err == nil {
		t.Error("nil chip accepted")
	}
}

func TestRunLifecycleBothPolicies(t *testing.T) {
	for _, pol := range []policy.Policy{hayatPolicy(t), vaaPolicy(t)} {
		e := newEngine(t, shortConfig(), pol, 1)
		res, err := e.Run(context.Background(), nil, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Policy != pol.Name() {
			t.Errorf("policy name %q", res.Policy)
		}
		if len(res.Records) != 4 { // 1 year / 0.25
			t.Fatalf("%s: %d records, want 4", pol.Name(), len(res.Records))
		}
		for i, rec := range res.Records {
			if rec.Epoch != i {
				t.Errorf("record %d has epoch %d", i, rec.Epoch)
			}
			if math.Abs(rec.YearsElapsed-float64(i+1)*0.25) > 1e-9 {
				t.Errorf("record %d years %v", i, rec.YearsElapsed)
			}
			if rec.Mapped == 0 {
				t.Errorf("%s epoch %d mapped nothing", pol.Name(), i)
			}
			if rec.AvgTemp <= 318 || rec.PeakTemp < rec.AvgTemp {
				t.Errorf("epoch %d temps avg=%v peak=%v", i, rec.AvgTemp, rec.PeakTemp)
			}
			if rec.AvgIPS <= 0 {
				t.Errorf("epoch %d no throughput", i)
			}
		}
	}
}

func TestHealthMonotoneAndBounded(t *testing.T) {
	e := newEngine(t, shortConfig(), vaaPolicy(t), 2)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for _, rec := range res.Records {
		if rec.AvgHealth > prev+1e-12 {
			t.Fatalf("average health rose: %v → %v", prev, rec.AvgHealth)
		}
		if rec.MinHealth <= 0 || rec.MinHealth > rec.AvgHealth {
			t.Fatalf("bad min health %v (avg %v)", rec.MinHealth, rec.AvgHealth)
		}
		prev = rec.AvgHealth
	}
	// Powered cores must actually age within a year.
	if last := res.Records[len(res.Records)-1]; last.AvgHealth >= 1 {
		t.Fatal("no aging after a simulated year")
	}
	for i, f := range res.FinalFMax {
		if f > res.InitialFMax[i]+1 {
			t.Fatalf("core %d sped up with age", i)
		}
		if res.FinalHealth[i] <= 0 || res.FinalHealth[i] > 1 {
			t.Fatalf("core %d final health %v", i, res.FinalHealth[i])
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		e := newEngine(t, shortConfig(), hayatPolicy(t), 3)
		res, err := e.Run(context.Background(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatal("record counts differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
	for i := range a.FinalFMax {
		if a.FinalFMax[i] != b.FinalFMax[i] {
			t.Fatal("final fmax differs")
		}
	}
}

func TestDarkSiliconBudgetHeld(t *testing.T) {
	cfg := shortConfig()
	cfg.DarkFraction = 0.50
	e := newEngine(t, cfg, vaaPolicy(t), 4)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Mapped > 32 {
			t.Fatalf("epoch %d powered %d cores with a 32-core budget", rec.Epoch, rec.Mapped)
		}
	}
}

func TestAvgFMaxAtInterpolation(t *testing.T) {
	e := newEngine(t, shortConfig(), vaaPolicy(t), 5)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f0 := res.AvgFMaxAt(0)
	sum := 0.0
	for _, f := range res.InitialFMax {
		sum += f
	}
	if math.Abs(f0-sum/64) > 1 {
		t.Fatalf("AvgFMaxAt(0) = %v", f0)
	}
	// Interpolated value between epochs lies between the bracketing
	// records.
	r0, r1 := res.Records[0], res.Records[1]
	mid := res.AvgFMaxAt((r0.YearsElapsed + r1.YearsElapsed) / 2)
	lo, hi := math.Min(r0.AvgFMax, r1.AvgFMax), math.Max(r0.AvgFMax, r1.AvgFMax)
	if mid < lo-1 || mid > hi+1 {
		t.Fatalf("interpolated %v outside [%v, %v]", mid, lo, hi)
	}
	// Beyond the last record: final value.
	if got := res.AvgFMaxAt(99); math.Abs(got-res.Records[len(res.Records)-1].AvgFMax) > 1 {
		t.Fatalf("extrapolated %v", got)
	}
	// Monotone non-increasing overall.
	if res.AvgFMaxAt(1.0) > f0 {
		t.Fatal("aged average frequency above initial")
	}
}

func TestDTMAccounting(t *testing.T) {
	e := newEngine(t, shortConfig(), vaaPolicy(t), 6)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, rec := range res.Records {
		if rec.DTMEvents < 0 {
			t.Fatal("negative DTM count")
		}
		sum += rec.DTMEvents
	}
	if sum != res.TotalDTM.Events() {
		t.Fatalf("per-epoch DTM sum %d != total %d", sum, res.TotalDTM.Events())
	}
}

func TestRemixChangesWorkload(t *testing.T) {
	cfg := shortConfig()
	cfg.RemixEpochs = 1 // new mix each epoch
	e := newEngine(t, cfg, vaaPolicy(t), 7)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mapped thread counts should not be identical across every epoch if
	// mixes vary (they could coincide; require at least one difference
	// across 4 epochs in mapped count or IPS).
	same := true
	for _, rec := range res.Records[1:] {
		if rec.Mapped != res.Records[0].Mapped || math.Abs(rec.AvgIPS-res.Records[0].AvgIPS) > 1e6 {
			same = false
		}
	}
	if same {
		t.Fatal("remixing produced identical workloads every epoch")
	}
}

func TestMalleabilityShrinksUnplaceableApps(t *testing.T) {
	cfg := shortConfig()
	cfg.RemixEpochs = 0 // keep one mix so adaptation is observable
	e := newEngine(t, cfg, vaaPolicy(t), 8)
	// Degrade the chip artificially by shrinking the budget hard: with
	// only 12 cores allowed and a mix sized for 12, any placement
	// failure must shrink K_j rather than repeat forever.
	cfg2 := cfg
	cfg2.DarkFraction = 1 - 12.0/64.0
	e2, err := New(cfg2, vaaPolicy(t), e.chip, e.tm, e.pm, e.pred, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unmapped counts must not grow over epochs (malleability adapts).
	first := res.Records[0].Unmapped
	last := res.Records[len(res.Records)-1].Unmapped
	if last > first {
		t.Fatalf("unmapped grew: %d → %d", first, last)
	}
}

func TestMalleabilityDisabled(t *testing.T) {
	cfg := shortConfig()
	cfg.Malleable = false
	e := newEngine(t, cfg, vaaPolicy(t), 9)
	if _, err := e.Run(context.Background(), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSensorNoiseZeroMeansNoViolations(t *testing.T) {
	e := newEngine(t, shortConfig(), hayatPolicy(t), 10)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Violations != 0 {
			t.Fatalf("ideal sensors produced %d requirement violations", rec.Violations)
		}
	}
}

func TestSensorNoiseRunsAndStaysDeterministic(t *testing.T) {
	cfg := shortConfig()
	cfg.SensorNoiseSigma = 0.10
	run := func() *Result {
		e := newEngine(t, cfg, hayatPolicy(t), 11)
		res, err := e.Run(context.Background(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("noisy run not deterministic at epoch %d", i)
		}
		if a.Records[i].Violations < 0 {
			t.Fatal("negative violations")
		}
	}
}

func TestSensorNoiseValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensorNoiseSigma = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative noise accepted")
	}
}

func TestMigrationStallReducesThroughput(t *testing.T) {
	// Force DTM activity with a hot configuration (25% dark, VAA) and
	// compare delivered IPS with and without the migration cost model.
	base := shortConfig()
	base.DarkFraction = 0.125
	base.Years = 0.5
	withCost := base
	withCost.MigrationStallSeconds = 0.2 // exaggerated for visibility
	noCost := base
	noCost.MigrationStallSeconds = 0

	run := func(cfg Config) (*Result, int) {
		e := newEngine(t, cfg, vaaPolicy(t), 12)
		res, err := e.Run(context.Background(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, res.TotalDTM.Migrations
	}
	rc, migC := run(withCost)
	rn, migN := run(noCost)
	if migN == 0 {
		t.Skip("no migrations triggered; scenario too cool on this chip")
	}
	_ = migC
	sum := func(r *Result) float64 {
		s := 0.0
		for _, rec := range r.Records {
			s += rec.AvgIPS
		}
		return s
	}
	if sum(rc) >= sum(rn) {
		t.Fatalf("stall model did not reduce throughput: %v vs %v", sum(rc), sum(rn))
	}
}

func TestMigrationStallValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MigrationStallSeconds = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative stall accepted")
	}
}

func TestTraceSinkReceivesSamples(t *testing.T) {
	cfg := shortConfig()
	cfg.Years = 0.25 // one epoch
	e := newEngine(t, cfg, vaaPolicy(t), 13)
	var buf strings.Builder
	sink := NewTSVTrace(&buf, []int{0, 5})
	if err := e.SetTrace(sink, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 1 epoch × 50 steps sampled every 10 → 5 samples + header.
	if len(lines) != 6 {
		t.Fatalf("got %d trace lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "epoch\tstep\ttime_s\tT0_K\tP0_W\tT5_K\tP5_W") {
		t.Fatalf("bad header: %q", lines[0])
	}
	// Every data row has 3 + 2·2 fields.
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, "\t")); got != 7 {
			t.Fatalf("row has %d fields: %q", got, l)
		}
	}
}

func TestSetTraceValidation(t *testing.T) {
	e := newEngine(t, shortConfig(), vaaPolicy(t), 13)
	if err := e.SetTrace(NewTSVTrace(&strings.Builder{}, nil), 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := e.SetTrace(nil, 0); err != nil {
		t.Fatalf("disabling trace failed: %v", err)
	}
}

func TestTraceOutOfRangeCore(t *testing.T) {
	cfg := shortConfig()
	cfg.Years = 0.25
	e := newEngine(t, cfg, vaaPolicy(t), 13)
	sink := NewTSVTrace(&strings.Builder{}, []int{999})
	if err := e.SetTrace(sink, 25); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if sink.Err() == nil {
		t.Fatal("out-of-range core not reported")
	}
}

func TestDVFSLadderQuantisesFrequencies(t *testing.T) {
	cfg := shortConfig()
	ladder, err := dvfs.Uniform(1.0e9, 4.0e9, 7) // 0.5 GHz steps
	if err != nil {
		t.Fatal(err)
	}
	cfg.FreqLevels = ladder
	e := newEngine(t, cfg, hayatPolicy(t), 14)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The ladder cuts both ways: rounded-up frequencies retire more
	// instructions per second, but tighter eligibility can unmap threads
	// (the malleable apps then shrink). The run must stay functional and
	// in the same throughput regime as continuous DVFS.
	cont := shortConfig()
	e2 := newEngine(t, cont, hayatPolicy(t), 14)
	res2, err := e2.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		if res.Records[i].Mapped == 0 {
			t.Fatalf("epoch %d mapped nothing under DVFS ladder", i)
		}
		if res.Records[i].AvgIPS < res2.Records[i].AvgIPS*0.6 {
			t.Fatalf("epoch %d: ladder IPS %v collapsed vs continuous %v",
				i, res.Records[i].AvgIPS, res2.Records[i].AvgIPS)
		}
	}
}

func TestDVFSLadderValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FreqLevels = dvfs.Levels{2e9, 1e9}
	if err := cfg.Validate(); err == nil {
		t.Fatal("descending ladder accepted")
	}
}

func TestTurboBoostTradesAgingForThroughput(t *testing.T) {
	base := shortConfig()
	turbo := base
	turbo.TurboBoost = true
	turbo.TurboMarginK = 15
	run := func(cfg Config) *Result {
		e := newEngine(t, cfg, hayatPolicy(t), 15)
		res, err := e.Run(context.Background(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rb, rt := run(base), run(turbo)
	sumIPS := func(r *Result) float64 {
		s := 0.0
		for _, rec := range r.Records {
			s += rec.AvgIPS
		}
		return s
	}
	if sumIPS(rt) <= sumIPS(rb) {
		t.Fatalf("turbo did not raise throughput: %v vs %v", sumIPS(rt), sumIPS(rb))
	}
	// ...and it costs health (faster aging via hotter, harder-driven cores).
	lastB := rb.Records[len(rb.Records)-1]
	lastT := rt.Records[len(rt.Records)-1]
	if lastT.AvgHealth >= lastB.AvgHealth {
		t.Fatalf("turbo did not accelerate aging: %v vs %v", lastT.AvgHealth, lastB.AvgHealth)
	}
	if lastT.AvgTemp <= lastB.AvgTemp {
		t.Fatalf("turbo did not raise temperatures: %v vs %v", lastT.AvgTemp, lastB.AvgTemp)
	}
}

func TestTurboValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TurboBoost = true
	cfg.TurboMarginK = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative turbo margin accepted")
	}
}

// The accelerated-aging abstraction of Fig. 4 must be robust to the epoch
// granularity: simulating the same lifetime in 3-month vs 6-month epochs
// should land at nearly the same final health (the up-scaling step, not
// the epoch count, carries the aging).
func TestEpochLengthConsistency(t *testing.T) {
	run := func(epochYears float64) *Result {
		cfg := DefaultConfig()
		cfg.Years = 2
		cfg.EpochYears = epochYears
		cfg.WindowSeconds = 1.0
		cfg.RemixEpochs = 0 // single mix so both runs see identical work
		e := newEngine(t, cfg, vaaPolicy(t), 16)
		res, err := e.Run(context.Background(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	quarter := run(0.25)
	half := run(0.50)
	aq := quarter.Records[len(quarter.Records)-1].AvgHealth
	ah := half.Records[len(half.Records)-1].AvgHealth
	if d := math.Abs(aq - ah); d > 0.01 {
		t.Fatalf("epoch-length sensitivity too high: 3-month %.4f vs 6-month %.4f (Δ %.4f)", aq, ah, d)
	}
}

func TestThermalSwingRecorded(t *testing.T) {
	e := newEngine(t, shortConfig(), vaaPolicy(t), 20)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		if rec.MaxSwing < 0 {
			t.Fatalf("epoch %d negative swing", i)
		}
		// Phase-driven power variation must produce a measurable swing.
		if rec.MaxSwing == 0 {
			t.Fatalf("epoch %d recorded no thermal cycling", i)
		}
		if rec.MaxSwing > rec.PeakTemp-318 {
			t.Fatalf("epoch %d swing %v exceeds total rise", i, rec.MaxSwing)
		}
	}
}
