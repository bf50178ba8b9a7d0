// Package sim implements the accelerated-aging evaluation engine of
// Fig. 4: coarse-grained aging epochs (months) each containing a
// fine-grained transient thermal simulation window (seconds), with the
// window's temperature and duty-cycle statistics up-scaled to the epoch
// length to advance the per-core NBTI aging state.
//
// Within each epoch the engine runs the closed loop the paper describes:
// the policy (Hayat or VAA) maps the current workload mix, the transient
// thermal solver integrates the resulting power traces (with
// temperature-dependent leakage), DTM migrates or throttles threads on
// thermal emergencies, and the health monitors (the per-core aging
// sensors D_i) report the degraded maximum frequencies back to the policy
// at the next epoch boundary.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/dtm"
	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/variation"
	"github.com/kit-ces/hayat/internal/workload"
)

// EngineVersion names the numerics that turn a Config into a Result. It
// moves whenever a change moves Result bits on purpose — a new solver, a
// reordered sum — and never otherwise: results, checkpoints and cache
// keys from another version are not comparable with this one. Version 1
// is the unversioned engine the first golden fingerprints pinned;
// version 2 solves the thermal network in its DCT modes.
const EngineVersion = 2

// Config controls one lifetime simulation.
type Config struct {
	// DarkFraction is the minimum dark-silicon fraction (0.25 or 0.50 in
	// the paper's experiments).
	DarkFraction float64
	// Years is the simulated lifetime (paper: 10).
	Years float64
	// EpochYears is the aging-epoch length (paper: 3 or 6 months).
	EpochYears float64
	// WindowSeconds is the fine-grained transient window simulated per
	// epoch; its statistics are up-scaled to the epoch.
	WindowSeconds float64
	// StepSeconds is the transient integration step.
	StepSeconds float64
	// DTMEverySteps is how often (in steps) the DTM manager inspects
	// temperatures.
	DTMEverySteps int
	// DTM is the thermal-management configuration.
	DTM dtm.Config
	// DutyMode selects the duty estimate the policy uses.
	DutyMode policy.DutyMode
	// HorizonYears is the policy's health-prediction horizon (defaults to
	// EpochYears when zero).
	HorizonYears float64
	// MixApps is the number of applications per workload mix.
	MixApps int
	// MixSeed seeds workload-mix generation.
	MixSeed int64
	// RemixEpochs > 0 draws a fresh mix every that-many epochs ("the next
	// epoch starts considering the same set of workloads (or potentially
	// a different one)"). Zero keeps one mix for the whole lifetime.
	RemixEpochs int
	// IncumbencyEpochs is how many epochs back a core counts as part of
	// the recent DCM for the policy's PrevOn signal. Mix sizes oscillate
	// across remixes; a multi-epoch memory keeps the stressed core set
	// stable instead of resetting whenever a small mix darkens part of
	// the DCM (see policy.Context.PrevOn).
	IncumbencyEpochs int
	// FreqLevels is the optional discrete DVFS ladder (nil = continuous,
	// the paper's assumption). Threads run at their requirement rounded
	// up to the ladder; policies and DTM judge eligibility against the
	// rounded value.
	FreqLevels dvfs.Levels
	// TurboBoost enables the performance-boosting mode the paper cites as
	// an aging aggravator (Intel Turbo Boost [21]): a thread overclocks to
	// its core's aged f_max whenever the core sits below
	// TSafe − TurboMarginK, instead of running at exactly its required
	// frequency. More instructions retire, more power burns, aging
	// accelerates — the trade Fig. 1(b) warns about.
	TurboBoost   bool
	TurboMarginK float64
	// SensorNoiseSigma models imperfect aging sensors [9, 10]: the
	// per-core maximum frequency the policy sees is the true aged value
	// multiplied by (1 + σ·N(0,1)), drawn deterministically per epoch.
	// Zero means ideal health monitors. Threads that land on cores whose
	// TRUE fmax is below their requirement are counted as requirement
	// violations in the epoch records.
	SensorNoiseSigma float64
	// MigrationStallSeconds is the performance cost of a DTM migration:
	// the migrated thread stalls (no instructions retired, halved
	// switching activity while architectural state and caches refill) for
	// this long. Zero disables the cost model. The paper notes migrations
	// imply "performance overhead"; this makes that overhead measurable
	// in the AvgIPS records.
	MigrationStallSeconds float64
	// Malleable enables the malleable application model of [23, 24]: when
	// the policy cannot place some of an application's threads (aged or
	// thermally constrained chip), the application's degree of
	// parallelism K_j is reduced for subsequent epochs, keeping exactly
	// the threads that were placed; it grows back (one thread per epoch,
	// up to the profile's bounds) while everything fits.
	Malleable bool
}

// DefaultConfig returns the paper's experimental settings: 10 years in
// 3-month epochs at 50 % dark silicon.
func DefaultConfig() Config {
	return Config{
		DarkFraction:          0.50,
		Years:                 10,
		EpochYears:            0.25,
		WindowSeconds:         4.0,
		StepSeconds:           0.02,
		DTMEverySteps:         1,
		DTM:                   dtm.DefaultConfig(),
		MigrationStallSeconds: 0.04,
		DutyMode:              policy.DutyKnown,
		MixApps:               4,
		MixSeed:               1,
		RemixEpochs:           4,
		IncumbencyEpochs:      8,
		Malleable:             true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	// NaN fails every ordered comparison, so it would pass each range
	// check below; infinities overflow the epoch and step counts.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DarkFraction", c.DarkFraction}, {"Years", c.Years}, {"EpochYears", c.EpochYears},
		{"WindowSeconds", c.WindowSeconds}, {"StepSeconds", c.StepSeconds},
		{"HorizonYears", c.HorizonYears}, {"TurboMarginK", c.TurboMarginK},
		{"SensorNoiseSigma", c.SensorNoiseSigma}, {"MigrationStallSeconds", c.MigrationStallSeconds},
		{"DTM.TSafe", c.DTM.TSafe},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s is %v, want a finite value", f.name, f.v)
		}
	}
	if c.DarkFraction < 0 || c.DarkFraction >= 1 {
		return fmt.Errorf("sim: DarkFraction %v outside [0,1)", c.DarkFraction)
	}
	if c.Years <= 0 || c.EpochYears <= 0 || c.EpochYears > c.Years {
		return fmt.Errorf("sim: invalid Years=%v EpochYears=%v", c.Years, c.EpochYears)
	}
	if c.WindowSeconds <= 0 || c.StepSeconds <= 0 || c.StepSeconds > c.WindowSeconds {
		return fmt.Errorf("sim: invalid window (%v s, step %v s)", c.WindowSeconds, c.StepSeconds)
	}
	if c.DTMEverySteps < 1 {
		return fmt.Errorf("sim: DTMEverySteps must be ≥1")
	}
	if err := c.DTM.Validate(); err != nil {
		return err
	}
	if c.MixApps <= 0 {
		return fmt.Errorf("sim: MixApps must be positive")
	}
	if c.IncumbencyEpochs < 0 {
		return fmt.Errorf("sim: negative IncumbencyEpochs")
	}
	if c.HorizonYears < 0 {
		return fmt.Errorf("sim: negative HorizonYears")
	}
	// A σ above 1 is noise larger than the reading itself; the bound also
	// keeps every noisy reading finite.
	if c.SensorNoiseSigma < 0 || c.SensorNoiseSigma > 1 {
		return fmt.Errorf("sim: SensorNoiseSigma %v outside [0, 1]", c.SensorNoiseSigma)
	}
	if c.MigrationStallSeconds < 0 {
		return fmt.Errorf("sim: negative MigrationStallSeconds")
	}
	if c.TurboBoost && c.TurboMarginK < 0 {
		return fmt.Errorf("sim: negative TurboMarginK")
	}
	if err := c.FreqLevels.Validate(); err != nil {
		return err
	}
	return nil
}

// EpochRecord captures one epoch's outcome.
type EpochRecord struct {
	Epoch        int
	YearsElapsed float64 // at the END of this epoch
	// Health/frequency state at the end of the epoch.
	AvgHealth, MinHealth float64
	AvgFMax, MaxFMax     float64 // Hz, aged
	// Thermal statistics over the fine-grained window.
	AvgTemp, PeakTemp float64 // Kelvin: time-and-space average / peak
	// MaxSwing is the largest per-core temperature swing (max − min over
	// the window, Kelvin) — a thermal-cycling proxy for the fatigue
	// mechanisms (solder, electromigration) that accompany NBTI.
	MaxSwing float64
	// DTM accounting within the epoch.
	DTMEvents int
	// Threads mapped / left unmapped by the policy this epoch.
	Mapped, Unmapped int
	// Violations counts threads mapped (under noisy sensor readings) to
	// cores whose true aged fmax cannot satisfy their requirement.
	Violations int
	// Throughput proxy: sum of delivered IPS over the window divided by
	// the window (instructions per second, aggregated over cores).
	AvgIPS float64
}

// Result is a whole lifetime simulation.
type Result struct {
	Policy      string
	Config      Config
	ChipSeed    int64
	InitialFMax []float64
	FinalFMax   []float64
	FinalHealth []float64
	Records     []EpochRecord
	TotalDTM    dtm.Stats
	// FinalTemps is the last window's time-averaged per-core temperature.
	FinalTemps []float64
}

// AvgFMaxAt returns the chip-average aged fmax (Hz) after `years`,
// interpolated on epoch boundaries (year 0 = initial).
func (r *Result) AvgFMaxAt(years float64) float64 {
	if years <= 0 || len(r.Records) == 0 {
		sum := 0.0
		for _, f := range r.InitialFMax {
			sum += f
		}
		return sum / float64(len(r.InitialFMax))
	}
	prevYears, prevVal := 0.0, r.AvgFMaxAt(0)
	for _, rec := range r.Records {
		if rec.YearsElapsed >= years {
			frac := (years - prevYears) / (rec.YearsElapsed - prevYears)
			return prevVal + frac*(rec.AvgFMax-prevVal)
		}
		prevYears, prevVal = rec.YearsElapsed, rec.AvgFMax
	}
	return prevVal
}

// Engine drives one chip through its lifetime under one policy.
type Engine struct {
	cfg  Config
	pol  policy.Policy
	chip *variation.Chip
	tm   *thermal.Model
	pm   power.Model
	pred *thermpredict.Predictor
	tab  *aging.Table3D

	trace      TraceSink
	traceEvery int
	observe    StageObserver
}

// New wires an engine. All dependencies must belong to the same chip.
func New(cfg Config, pol policy.Policy, chip *variation.Chip, tm *thermal.Model,
	pm power.Model, pred *thermpredict.Predictor, tab *aging.Table3D) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pol == nil || chip == nil || tm == nil || pred == nil || tab == nil {
		return nil, fmt.Errorf("sim: nil dependency")
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	if chip.Floorplan.N() != tm.Floorplan().N() {
		return nil, fmt.Errorf("sim: chip and thermal model disagree on core count")
	}
	return &Engine{cfg: cfg, pol: pol, chip: chip, tm: tm, pm: pm, pred: pred, tab: tab}, nil
}

// runState is the engine's resumable state between epochs.
type runState struct {
	health   []aging.State
	fmax     []float64
	temps    []float64
	lastUsed []int
	prevOn   []bool
	records  []EpochRecord
	dtmMgr   *dtm.Manager
	tr       *thermal.Transient
	mix      *workload.Mix
	// dtmBase carries DTM totals accumulated before a checkpoint restore
	// (the manager itself restarts from zero on resume).
	dtmBase dtm.Stats

	// Per-epoch scratch arenas, reused so the steady-state epoch kernel
	// allocates nothing (see DESIGN.md §15). None of it is part of the
	// resumable state: every field is fully reinitialised each epoch.
	threadBuf []*workload.Thread           // mix.Threads destination
	pctx      policy.Context               // reused policy context (carries Scratch across epochs)
	prevAsg   *mapping.Assignment          // last epoch's assignment, offered back to the policy
	ws        windowStats                  // window statistics accumulators
	pdyn      []float64                    // per-core dynamic power
	total     []float64                    // per-core total power
	cur       []float64                    // per-core current temperatures
	stall     map[*workload.Thread]float64 // migration-stall countdowns
}

// newRunState builds the epoch-0 state.
func (e *Engine) newRunState() (*runState, error) {
	n := e.chip.Floorplan.N()
	st := &runState{
		health:   make([]aging.State, n),
		fmax:     make([]float64, n),
		temps:    make([]float64, n),
		lastUsed: make([]int, n),
		pdyn:     make([]float64, n),
		total:    make([]float64, n),
		cur:      make([]float64, n),
		stall:    make(map[*workload.Thread]float64),
	}
	for i := 0; i < n; i++ {
		st.health[i] = aging.NewState()
		st.fmax[i] = e.chip.FMax0[i]
		st.temps[i] = e.tm.Ambient()
		st.lastUsed[i] = -1 << 30
	}
	if err := st.attach(e); err != nil {
		return nil, err
	}
	return st, nil
}

// attach (re)creates the non-serialisable members (DTM manager, transient
// integrator).
func (st *runState) attach(e *Engine) error {
	dtmCfg := e.cfg.DTM
	dtmCfg.FreqLevels = e.cfg.FreqLevels
	dtmMgr, err := dtm.NewManager(dtmCfg)
	if err != nil {
		return err
	}
	tr, err := e.tm.NewTransient(e.cfg.StepSeconds)
	if err != nil {
		return err
	}
	st.dtmMgr, st.tr = dtmMgr, tr
	return nil
}

// Epochs returns the total epoch count for the configured lifetime.
func (e *Engine) Epochs() int {
	return int(e.cfg.Years/e.cfg.EpochYears + 0.5)
}

// Run simulates the full lifetime and returns the result.
func (e *Engine) Run() (*Result, error) {
	//lint:ignore ctxfirst compatibility wrapper: context-free callers get the uncancellable root by design
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// at every epoch boundary, so a cancelled run stops before the next
// epoch's transient window starts. The returned error wraps ctx.Err() and
// names the epoch reached (a checkpoint at the preceding remix boundary
// makes such a run resumable, see Checkpoint).
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	st, err := e.newRunState()
	if err != nil {
		return nil, err
	}
	if err := e.runRange(ctx, st, 0, e.Epochs()); err != nil {
		return nil, err
	}
	return e.packageResult(st), nil
}

// runRange executes epochs [from, to).
func (e *Engine) runRange(ctx context.Context, st *runState, from, to int) error {
	cfg := e.cfg
	n := e.chip.Floorplan.N()
	horizon := cfg.HorizonYears
	if horizon == 0 {
		horizon = cfg.EpochYears
	}
	maxOn := MaxOnCores(n, cfg.DarkFraction)
	health, fmax, temps := st.health, st.fmax, st.temps
	lastUsed, prevOn := st.lastUsed, st.prevOn
	mix := st.mix
	var err error

	for ep := from; ep < to; ep++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("sim: run cancelled at epoch %d of %d: %w", ep, to, cerr)
		}
		// (Re-)draw the workload mix when due.
		if mix == nil || (cfg.RemixEpochs > 0 && ep%cfg.RemixEpochs == 0) {
			seed := cfg.MixSeed
			if cfg.RemixEpochs > 0 {
				seed += int64(ep / cfg.RemixEpochs)
			}
			mix, err = workload.GenerateMix(workload.MixConfig{MaxThreads: maxOn, Apps: cfg.MixApps}, seed)
			if err != nil {
				return err
			}
		}
		threads := mix.Threads(st.threadBuf[:0])
		st.threadBuf = threads

		// Policy decision at the epoch boundary, fed by the health
		// monitors (current fmax, optionally noisy) and last measured
		// temperatures. The noise draws consume one sequential RNG stream
		// whose order is part of the result contract.
		sensedFMax := fmax
		if cfg.SensorNoiseSigma > 0 {
			noiseRng := rand.New(rand.NewSource(cfg.MixSeed ^ (int64(ep)+1)*0x9E3779B9))
			sensedFMax = make([]float64, n)
			for i := range fmax {
				sensedFMax[i] = fmax[i] * (1 + cfg.SensorNoiseSigma*noiseRng.NormFloat64())
				if sensedFMax[i] < 0 {
					sensedFMax[i] = 0
				}
			}
		}
		// The policy context is a reused runState field (one heap value per
		// run, not per epoch); Scratch must survive the re-initialisation —
		// it is how the policy's arenas persist across epochs. The retired
		// assignment is offered back for recycling: the policy may clear
		// and reuse it (Hayat does), so st.prevAsg must not be read again.
		pctx := &st.pctx
		*pctx = policy.Context{
			Chip: e.chip, Predictor: e.pred, AgingTable: e.tab, PowerModel: e.pm,
			TSafe: cfg.DTM.TSafe, MaxOnCores: maxOn, HorizonYears: horizon,
			DutyMode: cfg.DutyMode,
			Health:   health, FMax: sensedFMax, Temps: temps,
			FreqLevels:      cfg.FreqLevels,
			PrevOn:          prevOn,
			Scratch:         st.pctx.Scratch,
			ReuseAssignment: st.prevAsg,
		}
		t0 := e.stageStart()
		mres, err := e.pol.Map(pctx, threads)
		e.stageEnd(StageMapping, t0)
		if err != nil {
			return fmt.Errorf("sim: %s mapping failed at epoch %d: %w", e.pol.Name(), ep, err)
		}
		asg := mres.Assignment

		// Malleable adaptation: shrink applications to their placed
		// thread sets, or grow them back while there is headroom.
		if cfg.Malleable {
			adaptParallelism(mix, asg, len(mres.Unmapped), maxOn, cfg.MixSeed+int64(ep))
		}

		// Fine-grained transient window. The failpoint stands in for a
		// transient solver/sensor fault; the service's retry layer treats
		// the injected error as retryable.
		if ferr := faultinject.Hit("sim.thermal-solve"); ferr != nil {
			return fmt.Errorf("sim: thermal window at epoch %d: %w", ep, ferr)
		}
		t0 = e.stageStart()
		rec, werr := e.runWindow(ep, st, asg, mix)
		e.stageEnd(StageThermal, t0)
		if werr != nil {
			return fmt.Errorf("sim: thermal window at epoch %d: %w", ep, werr)
		}

		// Requirement violations are judged against the TRUE fmax the
		// threads actually ran with this epoch (before it ages further).
		violations := 0
		for i := 0; i < n; i++ {
			if th := asg.ThreadOn(i); th != nil && fmax[i] < th.MinFreq() {
				violations++
			}
		}

		// Remember recent DCM membership (after DTM migrations) for the
		// next decision's incumbency signal: a core counts as incumbent
		// for IncumbencyEpochs epochs after it last ran a thread.
		if prevOn == nil {
			prevOn = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			if asg.ThreadOn(i) != nil {
				lastUsed[i] = ep
			}
			prevOn[i] = ep-lastUsed[i] < cfg.IncumbencyEpochs
		}

		// Up-scale the window statistics to the epoch and advance aging:
		// worst-case temperature and occupancy-weighted duty per core
		// (Section IV-B step 3).
		t0 = e.stageStart()
		for i := 0; i < n; i++ {
			health[i].Advance(e.tab, rec.worstTemp[i], rec.dutyAvg[i], cfg.EpochYears)
			fmax[i] = e.chip.FMax0[i] * health[i].Factor
		}
		e.stageEnd(StageAging, t0)

		// Record.
		er := EpochRecord{
			Epoch:        ep,
			YearsElapsed: float64(ep+1) * cfg.EpochYears,
			DTMEvents:    rec.dtmEvents,
			Mapped:       asg.NumAssigned(),
			Unmapped:     len(mres.Unmapped),
			Violations:   violations,
			AvgTemp:      rec.avgTemp,
			PeakTemp:     rec.peakTemp,
			MaxSwing:     rec.maxSwing,
			AvgIPS:       rec.avgIPS,
		}
		er.AvgHealth, er.MinHealth = healthStats(health)
		er.AvgFMax, er.MaxFMax = fmaxStats(fmax)
		st.records = append(st.records, er)
		st.prevAsg = asg
	}
	st.prevOn = prevOn
	st.mix = mix
	return nil
}

// packageResult assembles the public Result from a finished state.
func (e *Engine) packageResult(st *runState) *Result {
	n := e.chip.Floorplan.N()
	res := &Result{
		Policy:      e.pol.Name(),
		Config:      e.cfg,
		ChipSeed:    e.chip.Seed,
		InitialFMax: append([]float64(nil), e.chip.FMax0...),
		Records:     st.records,
	}
	res.FinalFMax = append([]float64(nil), st.fmax...)
	res.FinalHealth = make([]float64, n)
	for i := range st.health {
		res.FinalHealth[i] = st.health[i].Factor
	}
	res.FinalTemps = append([]float64(nil), st.temps...)
	res.TotalDTM = st.dtmMgr.Stats()
	res.TotalDTM.Add(st.dtmBase)
	return res
}

// windowStats accumulates fine-grained statistics for one epoch.
type windowStats struct {
	worstTemp []float64
	bestTemp  []float64 // per-core minimum over the window
	avgTempPC []float64 // per-core time average
	dutyAvg   []float64
	avgTemp   float64
	peakTemp  float64
	maxSwing  float64
	dtmEvents int
	avgIPS    float64
}

// reset prepares the accumulators for an n-core window. The extreme
// trackers are seeded at ∓Inf rather than a 0.0 sentinel (the PR10
// zero-sentinel bug class): an all-negative field still reports its true
// extremes. For physical positive-Kelvin temperatures the first of the
// ≥1 steps overwrites the seeds either way, bit-identically to the old
// zero seeds.
func (ws *windowStats) reset(n int) {
	if cap(ws.worstTemp) < n {
		ws.worstTemp = make([]float64, n)
		ws.bestTemp = make([]float64, n)
		ws.avgTempPC = make([]float64, n)
		ws.dutyAvg = make([]float64, n)
	}
	ws.worstTemp = ws.worstTemp[:n]
	ws.bestTemp = ws.bestTemp[:n]
	ws.avgTempPC = ws.avgTempPC[:n]
	ws.dutyAvg = ws.dutyAvg[:n]
	for i := 0; i < n; i++ {
		ws.worstTemp[i] = math.Inf(-1)
		ws.bestTemp[i] = math.Inf(1)
		ws.avgTempPC[i] = 0
		ws.dutyAvg[i] = 0
	}
	ws.avgTemp = 0
	ws.peakTemp = math.Inf(-1)
	ws.maxSwing = 0
	ws.dtmEvents = 0
	ws.avgIPS = 0
}

// runWindow executes the fine-grained transient simulation for one epoch
// and updates st.temps in place with the per-core time-averaged
// temperatures. A non-finite temperature anywhere in the window (poisoned
// power input or a degenerate solve) aborts the window with an error so
// NaN/Inf never reaches the aging advance. All working memory comes from
// the runState scratch arenas; the returned stats point into st.ws and
// are valid until the next window.
func (e *Engine) runWindow(epoch int, st *runState, asg *mapping.Assignment, mix *workload.Mix) (*windowStats, error) {
	cfg := e.cfg
	fmax, temps := st.fmax, st.temps
	dtmMgr, tr := st.dtmMgr, st.tr
	n := len(fmax)
	ws := &st.ws
	ws.reset(n)

	// Start the window from the steady state of the mapping's current
	// power, so the multi-second sink warm-up does not eat the window.
	pdyn, total := st.pdyn, st.total
	e.corePowers(pdyn, total, asg, dtmMgr, temps, fmax, nil)
	if err := tr.SetSteadyState(total); err != nil {
		return nil, err
	}
	st.cur = tr.CoreTemps(st.cur)
	cur := st.cur

	steps := int(cfg.WindowSeconds/cfg.StepSeconds + 0.5)
	if steps < 1 {
		steps = 1
	}
	dtmBefore := dtmMgr.Stats()
	tempSum := 0.0
	ipsSum := 0.0
	stall := st.stall
	clear(stall)

	for s := 0; s < steps; s++ {
		e.corePowers(pdyn, total, asg, dtmMgr, cur, fmax, stall)
		if err := tr.StepChecked(total); err != nil {
			return nil, err
		}
		cur = tr.CoreTemps(cur)

		for i := 0; i < n; i++ {
			if cur[i] > ws.worstTemp[i] {
				ws.worstTemp[i] = cur[i]
			}
			if cur[i] < ws.bestTemp[i] {
				ws.bestTemp[i] = cur[i]
			}
			if cur[i] > ws.peakTemp {
				ws.peakTemp = cur[i]
			}
			ws.avgTempPC[i] += cur[i]
			tempSum += cur[i]
			if th := asg.ThreadOn(i); th != nil {
				if stall[th] > 0 {
					continue // migration stall: no instructions retire
				}
				ph := th.Phase()
				ws.dutyAvg[i] += ph.Duty
				f := e.operatingFreq(th, i, fmax, cur) * dtmMgr.FrequencyFactor(i)
				ipsSum += ph.IPC * f
			}
		}
		if s%cfg.DTMEverySteps == 0 {
			for _, act := range dtmMgr.Step(cur, fmax, asg) {
				if act.Kind == dtm.Migrate && cfg.MigrationStallSeconds > 0 {
					stall[act.Thread] = cfg.MigrationStallSeconds
				}
			}
		}
		for th, left := range stall {
			if left <= cfg.StepSeconds {
				delete(stall, th)
			} else {
				stall[th] = left - cfg.StepSeconds
			}
		}
		if e.trace != nil && s%e.traceEvery == 0 {
			e.trace.Sample(epoch, s, float64(s)*cfg.StepSeconds, cur, total)
		}
		mix.Advance(cfg.StepSeconds)
	}

	inv := 1.0 / float64(steps)
	for i := 0; i < n; i++ {
		ws.avgTempPC[i] *= inv
		ws.dutyAvg[i] *= inv
		temps[i] = ws.avgTempPC[i]
		if swing := ws.worstTemp[i] - ws.bestTemp[i]; swing > ws.maxSwing {
			ws.maxSwing = swing
		}
	}
	// A near-uniform field can round its mean above its peak; the mean
	// of values never exceeds their maximum.
	ws.avgTemp = math.Min(tempSum*inv/float64(n), ws.peakTemp)
	ws.avgIPS = ipsSum * inv
	after := dtmMgr.Stats()
	ws.dtmEvents = after.Events() - dtmBefore.Events()
	return ws, nil
}

// corePowers fills pdyn (dynamic only) and total (dynamic + leakage /
// gated leakage) for the current assignment, thread phases and
// temperatures.
func (e *Engine) corePowers(pdyn, total []float64, asg *mapping.Assignment, dtmMgr *dtm.Manager, temps, fmax []float64, stall map[*workload.Thread]float64) {
	for i := range pdyn {
		th := asg.ThreadOn(i)
		if th == nil {
			pdyn[i] = 0
			total[i] = e.pm.GatedLeakage
			continue
		}
		ph := th.Phase()
		f := e.operatingFreq(th, i, fmax, temps) * dtmMgr.FrequencyFactor(i)
		activity := ph.Activity
		if stall != nil && stall[th] > 0 {
			activity *= 0.5 // cache/state refill burns power without retiring work
		}
		pdyn[i] = e.pm.DynamicPower(f, activity)
		total[i] = pdyn[i] + e.pm.CoreLeakage(e.chip.LeakFactor[i], temps[i], true)
	}
}

// adaptParallelism implements the malleable application model: each app
// keeps the threads the mapping placed (dropping unplaced ones for the
// next epoch); when everything was placed and budget remains, apps grow
// one thread per epoch back toward their profile bounds.
func adaptParallelism(mix *workload.Mix, asg *mapping.Assignment, unmapped, maxOn int, seed int64) {
	if unmapped > 0 {
		for _, a := range mix.Apps {
			placed := 0
			for _, t := range a.Threads {
				if _, ok := asg.CoreOf(t); ok {
					placed++
				}
			}
			if placed == len(a.Threads) {
				continue
			}
			a.Retain(func(t *workload.Thread) bool {
				_, ok := asg.CoreOf(t)
				return ok
			})
			want := placed
			if want < a.Profile.MinThreads {
				want = a.Profile.MinThreads
			}
			a.Resize(want, seed)
		}
		return
	}
	// Growth phase: one extra thread per epoch while it fits the budget.
	if mix.NumThreads() < maxOn {
		for _, a := range mix.Apps {
			if len(a.Threads) < a.Profile.MaxThreads && mix.NumThreads() < maxOn {
				a.Resize(len(a.Threads)+1, seed)
				return // at most one growth step per epoch
			}
		}
	}
}

// operatingFreq is the frequency a thread actually runs at on core i: its
// requirement rounded up to the DVFS ladder (falling back to the raw
// requirement if the ladder cannot serve it — the policy will already
// have reported such threads unmapped), or, with TurboBoost enabled and
// thermal headroom available, the core's aged f_max capped to the ladder.
func (e *Engine) operatingFreq(th *workload.Thread, i int, fmax, temps []float64) float64 {
	base := th.MinFreq()
	if f, ok := e.cfg.FreqLevels.Required(base); ok {
		base = f
	}
	if e.cfg.TurboBoost && temps != nil && temps[i] < e.cfg.DTM.TSafe-e.cfg.TurboMarginK {
		if turbo, ok := e.cfg.FreqLevels.Cap(fmax[i]); ok && turbo > base {
			return turbo
		}
	}
	return base
}

// MaxOnCores is the dark-silicon budget: how many of n cores may be
// powered at once at the given dark fraction (at least one).
func MaxOnCores(n int, darkFraction float64) int {
	on := int(float64(n) * (1 - darkFraction))
	if on < 1 {
		on = 1
	}
	return on
}

func healthStats(h []aging.State) (avg, min float64) {
	min = 1
	for i := range h {
		avg += h[i].Factor
		if h[i].Factor < min {
			min = h[i].Factor
		}
	}
	return avg / float64(len(h)), min
}

func fmaxStats(f []float64) (avg, max float64) {
	for _, v := range f {
		avg += v
		if v > max {
			max = v
		}
	}
	return avg / float64(len(f)), max
}
