package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/kit-ces/hayat/internal/dtm"
	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/workload"
)

// refRunRange, refRunWindow and refCorePowers are runRange, runWindow
// and corePowers as they were before corePowers recorded each powered
// core's operating frequency for the window's IPS account, verbatim but
// for their names (and refRunRange calling refRunWindow, which calls
// refCorePowers). Do not edit them to follow later changes: the live
// engine must produce the same records and state bit for bit.

// runRange executes epochs [from, to).
func (e *Engine) refRunRange(ctx context.Context, st *runState, from, to int) error {
	cfg := e.cfg
	n := e.chip.Floorplan.N()
	horizon := cfg.HorizonYears
	if horizon == 0 {
		horizon = cfg.EpochYears
	}
	maxOn := floorplan.MaxOnCores(n, cfg.DarkFraction)
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

		// The failpoint stands in for a solver fault: an injected error
		// fails the run, and hayatd fails the job with it. Its sleep mode
		// stalls each epoch without changing the result.
		if ferr := faultinject.Hit("sim.thermal-solve"); ferr != nil {
			return fmt.Errorf("sim: thermal window at epoch %d: %w", ep, ferr)
		}
		t0 = e.stageStart()
		rec, werr := e.refRunWindow(ep, st, asg, mix)
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

// runWindow executes the fine-grained transient simulation for one epoch
// and updates st.temps in place with the per-core time-averaged
// temperatures. A non-finite temperature anywhere in the window (poisoned
// power input or a degenerate solve) aborts the window with an error so
// NaN/Inf never reaches the aging advance. All working memory comes from
// the runState scratch arenas; the returned stats point into st.ws and
// are valid until the next window.
func (e *Engine) refRunWindow(epoch int, st *runState, asg *mapping.Assignment, mix *workload.Mix) (*windowStats, error) {
	cfg := e.cfg
	fmax, temps := st.fmax, st.temps
	dtmMgr, tr := st.dtmMgr, st.tr
	n := len(fmax)
	ws := &st.ws
	ws.reset(n)

	// Start the window from the steady state of the mapping's current
	// power, so the multi-second sink warm-up does not eat the window.
	pdyn, total := st.pdyn, st.total
	e.refCorePowers(pdyn, total, asg, dtmMgr, temps, fmax, nil)
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
		e.refCorePowers(pdyn, total, asg, dtmMgr, cur, fmax, stall)
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
				// stall is empty except after a DTM migration; the length
				// test skips the map lookup on every other step.
				if len(stall) > 0 && stall[th] > 0 {
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
func (e *Engine) refCorePowers(pdyn, total []float64, asg *mapping.Assignment, dtmMgr *dtm.Manager, temps, fmax []float64, stall map[*workload.Thread]float64) {
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
		if len(stall) > 0 && stall[th] > 0 {
			activity *= 0.5 // cache/state refill burns power without retiring work
		}
		pdyn[i] = e.pm.DynamicPower(f, activity)
		total[i] = pdyn[i] + e.leak.Core(e.chip.LeakFactor[i], temps[i], true)
	}
}

// TestWindowMatchesReference runs lifetimes through runRange and through
// the reference copies on two run states of one engine, and requires
// every epoch record, the final health, fmax and temperatures, and the
// DTM counts to agree bit for bit. The configurations cover both
// policies, TurboBoost at several margins (the one operating frequency
// the window must evaluate again after the step), a DVFS ladder, no
// migration stall, and DTM every third step.
func TestWindowMatchesReference(t *testing.T) {
	ladder, err := dvfs.Uniform(1.0e9, 4.0e9, 9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"default", func(*Config) {}},
		{"turbo0", func(c *Config) { c.TurboBoost, c.TurboMarginK = true, 0 }},
		{"turbo5", func(c *Config) { c.TurboBoost, c.TurboMarginK = true, 5 }},
		{"turbo20-ladder", func(c *Config) { c.TurboBoost, c.TurboMarginK, c.FreqLevels = true, 20, ladder }},
		{"ladder-nostall", func(c *Config) { c.FreqLevels, c.MigrationStallSeconds = ladder, 0 }},
		{"dtm3-dark25", func(c *Config) { c.DTMEverySteps, c.DarkFraction = 3, 0.25 }},
	}
	events := 0
	for _, c := range cases {
		for _, pol := range []policy.Policy{hayatPolicy(t), vaaPolicy(t)} {
			cfg := DefaultConfig()
			cfg.Years, cfg.WindowSeconds = 2, 1
			c.edit(&cfg)
			e := newEngine(t, cfg, pol, 3)
			got, err := e.newRunState()
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.newRunState()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.runRange(context.Background(), got, 0, e.Epochs()); err != nil {
				t.Fatal(err)
			}
			if err := e.refRunRange(context.Background(), want, 0, e.Epochs()); err != nil {
				t.Fatal(err)
			}
			desc := c.name + "/" + pol.Name()
			if g, w := fmt.Sprintf("%#v", got.records), fmt.Sprintf("%#v", want.records); g != w {
				t.Fatalf("%s: records differ:\n%s\nreference:\n%s", desc, g, w)
			}
			for i := range want.fmax {
				if !sameBits(got.fmax[i], want.fmax[i]) || !sameBits(got.temps[i], want.temps[i]) ||
					!sameBits(got.health[i].Factor, want.health[i].Factor) {
					t.Fatalf("%s: core %d state (%v, %v, %v), reference (%v, %v, %v)", desc, i,
						got.fmax[i], got.temps[i], got.health[i].Factor, want.fmax[i], want.temps[i], want.health[i].Factor)
				}
			}
			if got.dtmMgr.Stats() != want.dtmMgr.Stats() {
				t.Fatalf("%s: DTM %+v, reference %+v", desc, got.dtmMgr.Stats(), want.dtmMgr.Stats())
			}
			events += want.dtmMgr.Stats().Events()
		}
	}
	if events < 100 {
		t.Fatalf("%d DTM events in all runs; they do not exercise the window's DTM path", events)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
