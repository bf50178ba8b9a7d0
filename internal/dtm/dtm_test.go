package dtm

import (
	"testing"

	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/workload"
)

func testThreads(t *testing.T, n int) []*workload.Thread {
	t.Helper()
	p, _ := workload.ProfileByName("swaptions") // MinFreq 2.0 GHz
	app, err := workload.NewApp(p, 0, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return app.Threads[:n]
}

func uniform(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TSafe: 0, MigrateMargin: 10, ThrottleFactor: 0.7},
		{TSafe: 368, MigrateMargin: -1, ThrottleFactor: 0.7},
		{TSafe: 368, MigrateMargin: 10, ThrottleFactor: 0},
		{TSafe: 368, MigrateMargin: 10, ThrottleFactor: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewManager(bad[0]); err == nil {
		t.Error("NewManager accepted invalid config")
	}
}

func TestNoActionBelowTSafe(t *testing.T) {
	m, _ := NewManager(DefaultConfig())
	ths := testThreads(t, 2)
	asg := mapping.New(8)
	_ = asg.Assign(ths[0], 0)
	_ = asg.Assign(ths[1], 1)
	temps := uniform(8, 340)
	fmax := uniform(8, 3e9)
	actions := m.Step(temps, fmax, asg)
	if len(actions) != 0 {
		t.Fatalf("unexpected actions: %+v", actions)
	}
	if m.Stats().Events() != 0 {
		t.Fatalf("events = %d", m.Stats().Events())
	}
}

func TestMigratesToColdestEligible(t *testing.T) {
	m, _ := NewManager(DefaultConfig())
	ths := testThreads(t, 1)
	asg := mapping.New(8)
	_ = asg.Assign(ths[0], 0)
	temps := uniform(8, 345)
	temps[0] = 369 // hot
	temps[5] = 330 // coldest
	temps[6] = 335
	fmax := uniform(8, 3e9)
	actions := m.Step(temps, fmax, asg)
	if len(actions) != 1 || actions[0].Kind != Migrate {
		t.Fatalf("actions = %+v", actions)
	}
	if actions[0].ToCore != 5 {
		t.Fatalf("migrated to %d, want coldest core 5", actions[0].ToCore)
	}
	if asg.ThreadOn(5) != ths[0] || asg.ThreadOn(0) != nil {
		t.Fatal("assignment not updated")
	}
	if m.Stats().Migrations != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestMigrationSkipsSlowAndWarmCores(t *testing.T) {
	m, _ := NewManager(DefaultConfig())
	ths := testThreads(t, 1) // needs 2 GHz
	asg := mapping.New(4)
	_ = asg.Assign(ths[0], 0)
	temps := []float64{370, 330, 360, 332}
	// Core 1 is cold but too slow; core 2 is above TSafe−10; core 3 ok.
	fmax := []float64{3e9, 1.5e9, 3e9, 2.5e9}
	actions := m.Step(temps, fmax, asg)
	if len(actions) != 1 || actions[0].Kind != Migrate || actions[0].ToCore != 3 {
		t.Fatalf("actions = %+v", actions)
	}
}

func TestThrottleWhenNoDestination(t *testing.T) {
	m, _ := NewManager(DefaultConfig())
	ths := testThreads(t, 1)
	asg := mapping.New(2)
	_ = asg.Assign(ths[0], 0)
	temps := []float64{370, 365} // other core too warm for migration
	fmax := uniform(2, 3e9)
	actions := m.Step(temps, fmax, asg)
	if len(actions) != 1 || actions[0].Kind != Throttle {
		t.Fatalf("actions = %+v", actions)
	}
	if !m.Throttled(0) {
		t.Fatal("core 0 not marked throttled")
	}
	if f := m.FrequencyFactor(0); f != DefaultConfig().ThrottleFactor {
		t.Fatalf("FrequencyFactor = %v", f)
	}
	if f := m.FrequencyFactor(1); f != 1 {
		t.Fatalf("unthrottled core factor = %v", f)
	}
	// While still hot and throttled, no duplicate events.
	actions = m.Step([]float64{370, 365}, fmax, asg)
	if len(actions) != 0 {
		t.Fatalf("duplicate actions while throttled: %+v", actions)
	}
	if m.Stats().Throttles != 1 {
		t.Fatalf("throttles = %d", m.Stats().Throttles)
	}
}

func TestUnthrottleAfterCooling(t *testing.T) {
	m, _ := NewManager(DefaultConfig())
	ths := testThreads(t, 1)
	asg := mapping.New(2)
	_ = asg.Assign(ths[0], 0)
	fmax := uniform(2, 3e9)
	m.Step([]float64{370, 365}, fmax, asg) // throttles
	// Cooled just under TSafe but not past the margin: stays throttled.
	m.Step([]float64{360, 350}, fmax, asg)
	if !m.Throttled(0) {
		t.Fatal("unthrottled before reaching the hysteresis margin")
	}
	actions := m.Step([]float64{357, 350}, fmax, asg) // below 368.15−10
	if len(actions) != 1 || actions[0].Kind != Unthrottle {
		t.Fatalf("actions = %+v", actions)
	}
	if m.Throttled(0) {
		t.Fatal("still throttled after recovery")
	}
	// Unthrottle is not a DTM event.
	if m.Stats().Events() != 1 {
		t.Fatalf("events = %d, want 1", m.Stats().Events())
	}
}

func TestMultipleHotCoresHottestFirst(t *testing.T) {
	m, _ := NewManager(DefaultConfig())
	ths := testThreads(t, 2)
	asg := mapping.New(6)
	_ = asg.Assign(ths[0], 0)
	_ = asg.Assign(ths[1], 1)
	temps := []float64{369, 372, 330, 335, 365, 365}
	fmax := uniform(6, 3e9)
	actions := m.Step(temps, fmax, asg)
	if len(actions) != 2 {
		t.Fatalf("actions = %+v", actions)
	}
	// Hotter core 1 must be handled first and get the coldest core 2.
	if actions[0].FromCore != 1 || actions[0].ToCore != 2 {
		t.Fatalf("first action %+v, want core1→core2", actions[0])
	}
	if actions[1].FromCore != 0 || actions[1].ToCore != 3 {
		t.Fatalf("second action %+v, want core0→core3", actions[1])
	}
}

func TestThrottledCoreClearedWhenThreadLeaves(t *testing.T) {
	m, _ := NewManager(DefaultConfig())
	ths := testThreads(t, 1)
	asg := mapping.New(2)
	_ = asg.Assign(ths[0], 0)
	fmax := uniform(2, 3e9)
	m.Step([]float64{370, 365}, fmax, asg)
	asg.Unassign(ths[0])
	m.Step([]float64{340, 340}, fmax, asg)
	if m.Throttled(0) {
		t.Fatal("stale throttle mark survived thread departure")
	}
}

func TestStatsAddAndReset(t *testing.T) {
	var s Stats
	s.Add(Stats{Migrations: 2, Throttles: 3})
	s.Add(Stats{Migrations: 1})
	if s.Migrations != 3 || s.Throttles != 3 || s.Events() != 6 {
		t.Fatalf("stats = %+v", s)
	}
	m, _ := NewManager(DefaultConfig())
	m.stats = s
	m.ResetStats()
	if m.Stats().Events() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestStepPanicsOnLengthMismatch(t *testing.T) {
	m, _ := NewManager(DefaultConfig())
	asg := mapping.New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Step(uniform(3, 340), uniform(4, 3e9), asg)
}

func TestMigrationCooldownSuppressesPingPong(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CooldownSteps = 3
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ths := testThreads(t, 1)
	asg := mapping.New(4)
	_ = asg.Assign(ths[0], 0)
	fmax := uniform(4, 3e9)
	// Step 1: core 0 hot → migrate to coldest (core 3).
	temps := []float64{370, 345, 346, 330}
	acts := m.Step(temps, fmax, asg)
	if len(acts) != 1 || acts[0].Kind != Migrate || acts[0].ToCore != 3 {
		t.Fatalf("first step: %+v", acts)
	}
	// Steps 2–3: destination immediately reads hot, but the thread is on
	// cooldown — no action.
	for i := 0; i < 2; i++ {
		acts = m.Step([]float64{330, 345, 346, 372}, fmax, asg)
		if len(acts) != 0 {
			t.Fatalf("cooldown violated at step %d: %+v", i+2, acts)
		}
	}
	// Step 4: cooldown expired → the hot thread may migrate again.
	acts = m.Step([]float64{330, 345, 346, 372}, fmax, asg)
	if len(acts) != 1 || acts[0].Kind != Migrate {
		t.Fatalf("post-cooldown step: %+v", acts)
	}
	if m.Stats().Migrations != 2 {
		t.Fatalf("migrations = %d, want 2", m.Stats().Migrations)
	}
}

func TestCooldownZeroDisablesRateLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CooldownSteps = 0
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ths := testThreads(t, 1)
	asg := mapping.New(3)
	_ = asg.Assign(ths[0], 0)
	fmax := uniform(3, 3e9)
	if acts := m.Step([]float64{370, 330, 340}, fmax, asg); len(acts) != 1 {
		t.Fatalf("first: %+v", acts)
	}
	// Immediately hot again at the destination: with no cooldown, DTM
	// acts right away.
	if acts := m.Step([]float64{330, 371, 340}, fmax, asg); len(acts) != 1 {
		t.Fatalf("second: %+v", acts)
	}
}

func TestConfigRejectsBadLadderAndCooldown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CooldownSteps = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative cooldown accepted")
	}
	cfg = DefaultConfig()
	cfg.FreqLevels = []float64{2e9, 1e9}
	if err := cfg.Validate(); err == nil {
		t.Error("descending ladder accepted")
	}
}

// ResetStats clears the accounting (e.g. at epoch boundaries when per-epoch
// counts are wanted).
func (m *Manager) ResetStats() { m.stats = Stats{} }

// Throttled reports whether the thread on core i is currently throttled.
func (m *Manager) Throttled(i int) bool { return i < len(m.throttled) && m.throttled[i] }
