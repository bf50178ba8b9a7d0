// Package workload models the multi-threaded applications of Section III's
// application program model, standing in for the gem5+McPAT Parsec traces
// of the paper's setup.
//
// Each application A_j is malleable [23, 24]: its thread count K_j can be
// chosen inside [MinThreads, MaxThreads] depending on how many cores the
// run-time powers on. Each thread executes a looping sequence of phases;
// a phase carries the quantities the Hayat/VAA policies and the simulator
// actually consume — dynamic-activity factor, NBTI duty cycle, IPC and
// duration. Threads of the same application run the same phase program but
// with staggered start offsets, which is what produces the spatially and
// temporally varying thermal stress the paper's analysis relies on.
//
// Every thread requires a minimum frequency f_τ,min to meet its throughput
// or deadline constraint (threads run at exactly that frequency, never
// faster — Section VI).
package workload

import (
	"fmt"
	"math/rand"
)

// Phase is one execution phase of a thread.
type Phase struct {
	// Duration of the phase in seconds (at the fine-grained simulation
	// scale; the epoch engine up-scales).
	Duration float64
	// Activity is the dynamic-power activity factor in [0, 1].
	Activity float64
	// Duty is the NBTI stress duty cycle in [0, 1] — the fraction of time
	// PMOS devices spend under stress during the phase.
	Duty float64
	// IPC is instructions per cycle, for throughput (IPS) accounting.
	IPC float64
}

// Profile is a reusable application description.
type Profile struct {
	Name string
	// MinThreads and MaxThreads bound the malleable thread count K_j.
	MinThreads, MaxThreads int
	// MinFreq is the per-thread minimum frequency in Hz (f_τ,min).
	MinFreq float64
	// Phases is the looped phase program.
	Phases []Phase
}

// Validate reports structural problems with the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile without name")
	}
	if p.MinThreads < 1 || p.MaxThreads < p.MinThreads {
		return fmt.Errorf("workload: %s has invalid thread bounds [%d, %d]", p.Name, p.MinThreads, p.MaxThreads)
	}
	if p.MinFreq <= 0 {
		return fmt.Errorf("workload: %s has non-positive MinFreq", p.Name)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: %s has no phases", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("workload: %s phase %d has non-positive duration", p.Name, i)
		}
		if ph.Activity < 0 || ph.Activity > 1 || ph.Duty < 0 || ph.Duty > 1 {
			return fmt.Errorf("workload: %s phase %d has out-of-range activity/duty", p.Name, i)
		}
		if ph.IPC <= 0 {
			return fmt.Errorf("workload: %s phase %d has non-positive IPC", p.Name, i)
		}
	}
	return nil
}

// TotalDuration returns the length of one loop of the phase program.
func (p Profile) TotalDuration() float64 {
	d := 0.0
	for _, ph := range p.Phases {
		d += ph.Duration
	}
	return d
}

// AverageDuty returns the time-weighted mean duty cycle over one loop.
func (p Profile) AverageDuty() float64 {
	total := p.TotalDuration()
	if total == 0 {
		return 0
	}
	s := 0.0
	for _, ph := range p.Phases {
		s += ph.Duty * ph.Duration
	}
	return s / total
}

// Parsec returns the Parsec-like profile set. "bodytrack-high" and "x264"
// mirror the two applications named in the paper's setup; the remaining
// profiles fill out workload mixes the way the paper's "several mixes" do.
// Durations are fine-grained-simulation seconds.
func Parsec() []Profile {
	return []Profile{
		{
			// Computer-vision pipeline: bursty, highly parallel.
			Name: "bodytrack-high", MinThreads: 4, MaxThreads: 16, MinFreq: 2.2e9,
			Phases: []Phase{
				{Duration: 0.8, Activity: 0.95, Duty: 0.85, IPC: 1.6},
				{Duration: 0.4, Activity: 0.55, Duty: 0.50, IPC: 1.1},
				{Duration: 0.6, Activity: 0.90, Duty: 0.80, IPC: 1.5},
				{Duration: 0.2, Activity: 0.35, Duty: 0.30, IPC: 0.8},
			},
		},
		{
			// Video encoder on HD sequences: sustained high intensity.
			Name: "x264", MinThreads: 4, MaxThreads: 12, MinFreq: 2.6e9,
			Phases: []Phase{
				{Duration: 1.0, Activity: 1.00, Duty: 0.95, IPC: 1.9},
				{Duration: 0.5, Activity: 0.85, Duty: 0.80, IPC: 1.6},
				{Duration: 0.7, Activity: 0.95, Duty: 0.90, IPC: 1.8},
			},
		},
		{
			// Data-mining kernel: moderate, memory-bound.
			Name: "streamcluster", MinThreads: 2, MaxThreads: 16, MinFreq: 1.6e9,
			Phases: []Phase{
				{Duration: 1.2, Activity: 0.55, Duty: 0.55, IPC: 0.9},
				{Duration: 0.8, Activity: 0.40, Duty: 0.40, IPC: 0.7},
			},
		},
		{
			// Financial Monte-Carlo: compute-bound, steady.
			Name: "swaptions", MinThreads: 2, MaxThreads: 16, MinFreq: 2.0e9,
			Phases: []Phase{
				{Duration: 1.5, Activity: 0.80, Duty: 0.75, IPC: 1.7},
				{Duration: 0.3, Activity: 0.50, Duty: 0.45, IPC: 1.0},
			},
		},
		{
			// Content-similarity search: pipeline-parallel, mixed.
			Name: "ferret", MinThreads: 4, MaxThreads: 8, MinFreq: 1.8e9,
			Phases: []Phase{
				{Duration: 0.6, Activity: 0.70, Duty: 0.65, IPC: 1.2},
				{Duration: 0.6, Activity: 0.45, Duty: 0.40, IPC: 0.9},
				{Duration: 0.4, Activity: 0.85, Duty: 0.75, IPC: 1.4},
			},
		},
		{
			// Fluid simulation: alternating compute/communicate.
			Name: "fluidanimate", MinThreads: 4, MaxThreads: 16, MinFreq: 2.1e9,
			Phases: []Phase{
				{Duration: 0.9, Activity: 0.90, Duty: 0.85, IPC: 1.5},
				{Duration: 0.5, Activity: 0.30, Duty: 0.25, IPC: 0.6},
			},
		},
		{
			// Option pricing: embarrassingly parallel, short hot loops.
			Name: "blackscholes", MinThreads: 2, MaxThreads: 16, MinFreq: 1.9e9,
			Phases: []Phase{
				{Duration: 0.4, Activity: 0.88, Duty: 0.80, IPC: 1.8},
				{Duration: 0.2, Activity: 0.40, Duty: 0.35, IPC: 0.9},
			},
		},
		{
			// Simulated annealing on a netlist: cache-hostile, low IPC.
			Name: "canneal", MinThreads: 2, MaxThreads: 12, MinFreq: 1.5e9,
			Phases: []Phase{
				{Duration: 1.4, Activity: 0.45, Duty: 0.45, IPC: 0.5},
				{Duration: 0.6, Activity: 0.60, Duty: 0.55, IPC: 0.7},
			},
		},
		{
			// Stream deduplication: pipeline with bursty hashing stages.
			Name: "dedup", MinThreads: 3, MaxThreads: 12, MinFreq: 1.8e9,
			Phases: []Phase{
				{Duration: 0.5, Activity: 0.75, Duty: 0.70, IPC: 1.3},
				{Duration: 0.3, Activity: 0.95, Duty: 0.85, IPC: 1.7},
				{Duration: 0.7, Activity: 0.50, Duty: 0.45, IPC: 0.9},
			},
		},
		{
			// Image processing pipeline: sustained medium intensity.
			Name: "vips", MinThreads: 2, MaxThreads: 16, MinFreq: 2.0e9,
			Phases: []Phase{
				{Duration: 1.0, Activity: 0.70, Duty: 0.65, IPC: 1.4},
				{Duration: 0.4, Activity: 0.55, Duty: 0.50, IPC: 1.1},
			},
		},
		{
			// Frequent-itemset mining: memory-bound with compute bursts.
			Name: "freqmine", MinThreads: 2, MaxThreads: 16, MinFreq: 1.7e9,
			Phases: []Phase{
				{Duration: 1.1, Activity: 0.50, Duty: 0.50, IPC: 0.8},
				{Duration: 0.5, Activity: 0.85, Duty: 0.75, IPC: 1.5},
			},
		},
		{
			// Real-time raytracing: deadline-driven, high frequency demand.
			Name: "raytrace", MinThreads: 2, MaxThreads: 8, MinFreq: 2.8e9,
			Phases: []Phase{
				{Duration: 0.8, Activity: 0.92, Duty: 0.85, IPC: 1.9},
				{Duration: 0.3, Activity: 0.65, Duty: 0.60, IPC: 1.3},
			},
		},
	}
}

// PaperSet returns the six profiles that drive the paper-replication
// mixes: the two applications the paper names (bodytrack-high, x264) plus
// the four fillers its "several mixes" imply. The remaining Parsec()
// profiles are available for custom mixes via MixConfig.Profiles.
func PaperSet() []Profile {
	names := map[string]bool{
		"bodytrack-high": true, "x264": true, "streamcluster": true,
		"swaptions": true, "ferret": true, "fluidanimate": true,
	}
	var out []Profile
	for _, p := range Parsec() {
		if names[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// FewestThreads is the smallest MinThreads in ps: a mix drawn from ps
// needs at least this many powered cores.
func FewestThreads(ps []Profile) int {
	fewest := 0
	for i, p := range ps {
		if i == 0 || p.MinThreads < fewest {
			fewest = p.MinThreads
		}
	}
	return fewest
}

// ProfileByName looks a profile up in the Parsec set.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Parsec() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Thread is a running instance of one application thread — τ_(j,k).
type Thread struct {
	// App is the owning application.
	App *App
	// Index is k within the application.
	Index int

	phaseIdx  int
	phaseLeft float64 // seconds remaining in the current phase
}

// Phase returns the thread's current phase.
func (t *Thread) Phase() Phase { return t.App.Profile.Phases[t.phaseIdx] }

// MinFreq returns the thread's required frequency in Hz.
func (t *Thread) MinFreq() float64 { return t.App.Profile.MinFreq }

// Advance moves the thread dt seconds forward through its (looping) phase
// program.
func (t *Thread) Advance(dt float64) {
	if dt < 0 {
		panic("workload: negative time advance")
	}
	for dt > 0 {
		if dt < t.phaseLeft {
			t.phaseLeft -= dt
			return
		}
		dt -= t.phaseLeft
		t.phaseIdx = (t.phaseIdx + 1) % len(t.App.Profile.Phases)
		t.phaseLeft = t.App.Profile.Phases[t.phaseIdx].Duration
	}
}

// skipInto positions the thread at `offset` seconds into its loop.
func (t *Thread) skipInto(offset float64) {
	t.phaseIdx = 0
	t.phaseLeft = t.App.Profile.Phases[0].Duration
	loop := t.App.Profile.TotalDuration()
	if loop > 0 {
		t.Advance(offset - float64(int(offset/loop))*loop)
	}
}

// App is a running application A_j with its malleable thread set.
type App struct {
	Profile Profile
	// ID distinguishes instances of the same profile in a mix.
	ID int
	// Threads are the K_j live threads.
	Threads []*Thread
}

// NewApp instantiates an application with the requested thread count,
// clamped into the profile's malleable bounds. Thread phase programs are
// staggered deterministically from the seed.
func NewApp(p Profile, id, threads int, seed int64) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if threads < p.MinThreads {
		threads = p.MinThreads
	}
	if threads > p.MaxThreads {
		threads = p.MaxThreads
	}
	a := &App{Profile: p, ID: id, Threads: make([]*Thread, threads)}
	rng := rand.New(rand.NewSource(seed))
	loop := p.TotalDuration()
	for k := range a.Threads {
		t := &Thread{App: a, Index: k}
		t.skipInto(rng.Float64() * loop)
		a.Threads[k] = t
	}
	return a, nil
}

// Resize changes the application's thread count inside its malleable
// bounds (the varying degree of parallelism of [23, 24]), preserving the
// state of surviving threads and staggering new ones from the seed.
func (a *App) Resize(threads int, seed int64) {
	if threads < a.Profile.MinThreads {
		threads = a.Profile.MinThreads
	}
	if threads > a.Profile.MaxThreads {
		threads = a.Profile.MaxThreads
	}
	if threads <= len(a.Threads) {
		a.Threads = a.Threads[:threads]
		return
	}
	rng := rand.New(rand.NewSource(seed))
	loop := a.Profile.TotalDuration()
	for k := len(a.Threads); k < threads; k++ {
		t := &Thread{App: a, Index: k}
		t.skipInto(rng.Float64() * loop)
		a.Threads = append(a.Threads, t)
	}
}

// Retain stably reorders the application's threads so those for which
// keep returns true come first, preserving relative order inside both
// groups. Combined with Resize it implements malleable shrinking that
// drops specific threads (e.g. the ones a mapping left unplaced) rather
// than whichever happen to sit at the tail.
func (a *App) Retain(keep func(*Thread) bool) {
	kept := make([]*Thread, 0, len(a.Threads))
	var dropped []*Thread
	for _, t := range a.Threads {
		if keep(t) {
			kept = append(kept, t)
		} else {
			dropped = append(dropped, t)
		}
	}
	a.Threads = append(kept, dropped...)
}

// Mix is a concurrently executing application set (one of the paper's
// workload mixes).
type Mix struct {
	Apps []*App
}

// Threads appends every live thread across the mix to dst and returns it.
func (m *Mix) Threads(dst []*Thread) []*Thread {
	for _, a := range m.Apps {
		dst = append(dst, a.Threads...)
	}
	return dst
}

// NumThreads returns the total live thread count.
func (m *Mix) NumThreads() int {
	n := 0
	for _, a := range m.Apps {
		n += len(a.Threads)
	}
	return n
}

// Advance moves every thread in the mix forward by dt seconds.
func (m *Mix) Advance(dt float64) {
	for _, a := range m.Apps {
		for _, t := range a.Threads {
			t.Advance(dt)
		}
	}
}

// MixConfig controls deterministic mix generation.
type MixConfig struct {
	// MaxThreads caps the total thread count (typically the number of
	// powered-on cores).
	MaxThreads int
	// Apps is the number of application instances to draw.
	Apps int
	// Profiles restricts the draw to these profiles; nil uses PaperSet().
	Profiles []Profile
}

// GenerateMix draws a deterministic workload mix: `Apps` profile instances
// (round-robin over the Parsec set, shuffled by seed) with thread counts
// chosen to fill at most MaxThreads cores.
func GenerateMix(cfg MixConfig, seed int64) (*Mix, error) {
	if cfg.Apps <= 0 || cfg.MaxThreads <= 0 {
		return nil, fmt.Errorf("workload: invalid mix config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(seed))
	profiles := cfg.Profiles
	if profiles == nil {
		profiles = PaperSet()
	} else {
		profiles = append([]Profile(nil), profiles...)
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("workload: empty profile set")
	}
	rng.Shuffle(len(profiles), func(i, j int) { profiles[i], profiles[j] = profiles[j], profiles[i] })
	mix := &Mix{}
	budget := cfg.MaxThreads
	for i := 0; i < cfg.Apps; i++ {
		p := profiles[i%len(profiles)]
		if budget < p.MinThreads {
			break
		}
		// Fair share of the remaining budget, inside malleable bounds.
		share := budget / (cfg.Apps - i)
		if share < p.MinThreads {
			share = p.MinThreads
		}
		if share > p.MaxThreads {
			share = p.MaxThreads
		}
		if share > budget {
			share = budget
		}
		a, err := NewApp(p, i, share, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		mix.Apps = append(mix.Apps, a)
		budget -= len(a.Threads)
	}
	if len(mix.Apps) == 0 {
		// The lead profile needs more threads than the budget holds:
		// admit the first profile that fits instead.
		for _, p := range profiles {
			if p.MinThreads <= budget {
				a, err := NewApp(p, 0, min(budget, p.MaxThreads), seed)
				if err != nil {
					return nil, err
				}
				mix.Apps = append(mix.Apps, a)
				break
			}
		}
	}
	if len(mix.Apps) == 0 {
		return nil, fmt.Errorf("workload: mix config %+v admits no application", cfg)
	}
	return mix, nil
}
