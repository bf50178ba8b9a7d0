package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParsecProfilesValid(t *testing.T) {
	ps := Parsec()
	if len(ps) < 5 {
		t.Fatalf("only %d profiles", len(ps))
	}
	names := make(map[string]bool)
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate profile name %s", p.Name)
		}
		names[p.Name] = true
	}
	// The two applications the paper names must exist.
	for _, want := range []string{"bodytrack-high", "x264"} {
		if _, ok := ProfileByName(want); !ok {
			t.Errorf("missing paper profile %s", want)
		}
	}
	if _, ok := ProfileByName("no-such-app"); ok {
		t.Error("lookup of unknown profile succeeded")
	}
}

func TestProfileValidateRejectsBadShapes(t *testing.T) {
	good, _ := ProfileByName("x264")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MinThreads = 0 },
		func(p *Profile) { p.MaxThreads = p.MinThreads - 1 },
		func(p *Profile) { p.MinFreq = 0 },
		func(p *Profile) { p.Phases = nil },
		func(p *Profile) { p.Phases = []Phase{{Duration: 0, Activity: 0.5, Duty: 0.5, IPC: 1}} },
		func(p *Profile) { p.Phases = []Phase{{Duration: 1, Activity: 1.5, Duty: 0.5, IPC: 1}} },
		func(p *Profile) { p.Phases = []Phase{{Duration: 1, Activity: 0.5, Duty: -0.1, IPC: 1}} },
		func(p *Profile) { p.Phases = []Phase{{Duration: 1, Activity: 0.5, Duty: 0.5, IPC: 0}} },
	}
	for i, mut := range cases {
		p := good
		p.Phases = append([]Phase(nil), good.Phases...)
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTotalDurationAndAverageDuty(t *testing.T) {
	p := Profile{
		Name: "t", MinThreads: 1, MaxThreads: 1, MinFreq: 1e9,
		Phases: []Phase{
			{Duration: 1, Activity: 1, Duty: 1.0, IPC: 1},
			{Duration: 3, Activity: 1, Duty: 0.2, IPC: 1},
		},
	}
	if d := p.TotalDuration(); d != 4 {
		t.Fatalf("TotalDuration = %v", d)
	}
	want := (1*1.0 + 3*0.2) / 4
	if d := p.AverageDuty(); math.Abs(d-want) > 1e-12 {
		t.Fatalf("AverageDuty = %v, want %v", d, want)
	}
}

func TestNewAppClampsThreadCount(t *testing.T) {
	p, _ := ProfileByName("x264") // bounds [4, 12]
	a, err := NewApp(p, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Threads) != p.MinThreads {
		t.Fatalf("threads = %d, want clamp to %d", len(a.Threads), p.MinThreads)
	}
	a, _ = NewApp(p, 0, 100, 1)
	if len(a.Threads) != p.MaxThreads {
		t.Fatalf("threads = %d, want clamp to %d", len(a.Threads), p.MaxThreads)
	}
}

func TestThreadsStaggered(t *testing.T) {
	p, _ := ProfileByName("bodytrack-high")
	a, err := NewApp(p, 0, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Not all threads should sit in the same phase with identical
	// remaining time.
	first := a.Threads[0]
	allSame := true
	for _, th := range a.Threads[1:] {
		if th.phaseIdx != first.phaseIdx || th.phaseLeft != first.phaseLeft {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("threads not staggered")
	}
}

func TestAdvanceWrapsPhases(t *testing.T) {
	p := Profile{
		Name: "t", MinThreads: 1, MaxThreads: 1, MinFreq: 1e9,
		Phases: []Phase{
			{Duration: 1, Activity: 0.1, Duty: 0.1, IPC: 1},
			{Duration: 2, Activity: 0.9, Duty: 0.9, IPC: 1},
		},
	}
	a, err := NewApp(p, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	th := a.Threads[0]
	th.phaseIdx, th.phaseLeft = 0, 1 // reset stagger for determinism
	th.Advance(0.5)
	if th.Phase().Activity != 0.1 {
		t.Fatalf("still phase 0 expected")
	}
	th.Advance(0.5) // exactly at boundary → next phase
	if th.Phase().Activity != 0.9 {
		t.Fatalf("phase 1 expected at boundary")
	}
	th.Advance(2.0) // wraps to phase 0
	if th.Phase().Activity != 0.1 {
		t.Fatalf("wrap to phase 0 expected, at phase %d", th.phaseIdx)
	}
	// A full loop returns to the same point.
	idx, left := th.phaseIdx, th.phaseLeft
	th.Advance(3.0)
	if th.phaseIdx != idx || math.Abs(th.phaseLeft-left) > 1e-12 {
		t.Fatalf("full-loop advance not periodic: (%d,%v) vs (%d,%v)", th.phaseIdx, th.phaseLeft, idx, left)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	p, _ := ProfileByName("x264")
	a, _ := NewApp(p, 0, 4, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Threads[0].Advance(-1)
}

func TestResize(t *testing.T) {
	p, _ := ProfileByName("streamcluster") // [2, 16]
	a, err := NewApp(p, 0, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink: keeps the first threads.
	survivor := a.Threads[1]
	a.Resize(4, 3)
	if len(a.Threads) != 4 || a.Threads[1] != survivor {
		t.Fatal("shrink did not preserve surviving threads")
	}
	// Grow: new threads appended with correct indices.
	a.Resize(10, 4)
	if len(a.Threads) != 10 {
		t.Fatalf("grow to %d", len(a.Threads))
	}
	for k, th := range a.Threads {
		if th.Index > 10 {
			t.Fatalf("thread %d has index %d", k, th.Index)
		}
	}
	// Clamp below MinThreads.
	a.Resize(0, 5)
	if len(a.Threads) != p.MinThreads {
		t.Fatalf("resize(0) = %d threads, want %d", len(a.Threads), p.MinThreads)
	}
}

func TestGenerateMixDeterministic(t *testing.T) {
	cfg := MixConfig{MaxThreads: 32, Apps: 4}
	a, err := GenerateMix(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMix(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumThreads() != b.NumThreads() || len(a.Apps) != len(b.Apps) {
		t.Fatal("same seed gave different mixes")
	}
	for i := range a.Apps {
		if a.Apps[i].Profile.Name != b.Apps[i].Profile.Name {
			t.Fatal("same seed gave different app order")
		}
	}
}

func TestGenerateMixRespectsBudget(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		mix, err := GenerateMix(MixConfig{MaxThreads: 32, Apps: 4}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if n := mix.NumThreads(); n > 32 {
			t.Fatalf("seed %d: %d threads exceed budget 32", seed, n)
		}
		if n := mix.NumThreads(); n < 8 {
			t.Fatalf("seed %d: mix suspiciously small (%d threads)", seed, n)
		}
	}
}

func TestGenerateMixErrors(t *testing.T) {
	if _, err := GenerateMix(MixConfig{MaxThreads: 0, Apps: 3}, 1); err == nil {
		t.Error("expected error for zero budget")
	}
	if _, err := GenerateMix(MixConfig{MaxThreads: 16, Apps: 0}, 1); err == nil {
		t.Error("expected error for zero apps")
	}
	if _, err := GenerateMix(MixConfig{MaxThreads: 1, Apps: 1}, 1); err == nil {
		t.Error("expected error when no profile fits a 1-thread budget")
	}
}

// A budget below the lead profile's MinThreads still admits the first
// profile that fits.
func TestGenerateMixTightBudget(t *testing.T) {
	for _, budget := range []int{2, 3} {
		for seed := int64(0); seed < 20; seed++ {
			mix, err := GenerateMix(MixConfig{MaxThreads: budget, Apps: 4}, seed)
			if err != nil {
				t.Fatalf("budget %d seed %d: %v", budget, seed, err)
			}
			if n := mix.NumThreads(); n < 1 || n > budget {
				t.Fatalf("budget %d seed %d: %d threads", budget, seed, n)
			}
		}
	}
}

func TestMixAdvanceAndThreads(t *testing.T) {
	mix, err := GenerateMix(MixConfig{MaxThreads: 24, Apps: 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	all := mix.Threads(nil)
	if len(all) != mix.NumThreads() {
		t.Fatalf("Threads() returned %d, NumThreads %d", len(all), mix.NumThreads())
	}
	// Advancing keeps phases valid.
	for i := 0; i < 100; i++ {
		mix.Advance(0.13)
		for _, th := range all {
			ph := th.Phase()
			if ph.Duration <= 0 || ph.IPC <= 0 {
				t.Fatal("thread landed in invalid phase")
			}
		}
	}
}

// Property: Advance is additive — advancing by a+b equals advancing by a
// then b.
func TestAdvanceAdditiveProperty(t *testing.T) {
	p, _ := ProfileByName("ferret")
	f := func(rawA, rawB uint16, seed int64) bool {
		a := float64(rawA%1000) / 250
		b := float64(rawB%1000) / 250
		app1, err := NewApp(p, 0, 4, seed)
		if err != nil {
			return false
		}
		app2, err := NewApp(p, 0, 4, seed)
		if err != nil {
			return false
		}
		t1, t2 := app1.Threads[0], app2.Threads[0]
		t1.Advance(a + b)
		t2.Advance(a)
		t2.Advance(b)
		return t1.phaseIdx == t2.phaseIdx && math.Abs(t1.phaseLeft-t2.phaseLeft) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRetainReorders(t *testing.T) {
	p, _ := ProfileByName("streamcluster")
	a, err := NewApp(p, 0, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Keep even-indexed threads: they must move to the front, stably.
	evens := map[*Thread]bool{}
	for i, th := range a.Threads {
		if i%2 == 0 {
			evens[th] = true
		}
	}
	a.Retain(func(th *Thread) bool { return evens[th] })
	for i := 0; i < 3; i++ {
		if !evens[a.Threads[i]] {
			t.Fatalf("position %d holds a dropped thread", i)
		}
	}
	for i := 3; i < 6; i++ {
		if evens[a.Threads[i]] {
			t.Fatalf("position %d holds a kept thread", i)
		}
	}
	// Stability inside the kept group.
	if a.Threads[0].Index > a.Threads[1].Index || a.Threads[1].Index > a.Threads[2].Index {
		t.Fatal("Retain not stable")
	}
	// Shrink drops exactly the non-kept tail.
	a.Resize(3, 2)
	for _, th := range a.Threads {
		if !evens[th] {
			t.Fatal("Resize after Retain dropped a kept thread")
		}
	}
}

func TestPaperSetContents(t *testing.T) {
	ps := PaperSet()
	if len(ps) != 6 {
		t.Fatalf("paper set has %d profiles", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
	}
	for _, want := range []string{"bodytrack-high", "x264"} {
		if !names[want] {
			t.Fatalf("paper set missing %s", want)
		}
	}
	if names["raytrace"] {
		t.Fatal("extension profile leaked into the paper set")
	}
}

func TestGenerateMixCustomProfiles(t *testing.T) {
	only, _ := ProfileByName("raytrace")
	mix, err := GenerateMix(MixConfig{MaxThreads: 16, Apps: 2, Profiles: []Profile{only}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range mix.Apps {
		if a.Profile.Name != "raytrace" {
			t.Fatalf("unexpected profile %s", a.Profile.Name)
		}
	}
	if _, err := GenerateMix(MixConfig{MaxThreads: 16, Apps: 2, Profiles: []Profile{}}, 1); err == nil {
		t.Fatal("empty profile set accepted")
	}
}
