// Package hayat is a pure-Go reproduction of "Hayat: Harnessing Dark
// Silicon and Variability for Aging Deceleration and Balancing"
// (Gnad, Shafique, Kriebel, Rehman, Sun, Henkel — DAC 2015).
//
// It simulates the lifetime of dark-silicon manycore chips under NBTI
// aging and compares the paper's run-time aging-management system (Hayat)
// against the extended smart-hill-climbing baseline (VAA). The library
// bundles every substrate the paper's evaluation depends on: a
// spatially-correlated process-variation model, a compact RC thermal
// simulator, a McPAT-style power model, reaction–diffusion NBTI aging with
// offline 3D aging tables, an online thermal-profile predictor, synthetic
// Parsec-like workloads, dynamic thermal management, and an epoch-based
// accelerated-aging engine.
//
// # Quick start
//
//	sys, err := hayat.NewSystem(hayat.DefaultConfig())
//	chip, err := sys.NewChip(1)
//	res, err := chip.RunLifetime(hayat.PolicyHayat)
//	fmt.Println(res.AverageFrequencyAt(10))
//
// All behaviour is deterministic in the (config, chip seed) pair.
package hayat

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/baseline"
	"github.com/kit-ces/hayat/internal/core"
	"github.com/kit-ces/hayat/internal/dtm"
	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/gates"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/report"
	"github.com/kit-ces/hayat/internal/sim"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/variation"
	"github.com/kit-ces/hayat/internal/workload"
)

// EngineVersion names the numerics behind every Result (sim.EngineVersion).
// Results of different versions are not comparable; the service folds it
// into every cache key, so a result stored by another version is
// recomputed, never served.
const EngineVersion = sim.EngineVersion

// Policy selects the run-time mapping policy.
type Policy int

const (
	// PolicyHayat is the paper's contribution: variation- and
	// dark-silicon-aware aging management (Algorithm 1).
	PolicyHayat Policy = iota
	// PolicyVAA is the comparison baseline: the variability- and
	// aging-aware extension of smart-hill-climbing contiguous mapping.
	PolicyVAA
)

// String returns the policy's report name.
func (p Policy) String() string {
	switch p {
	case PolicyHayat:
		return "Hayat"
	case PolicyVAA:
		return "VAA"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a case-insensitive policy name ("hayat", "vaa") to its
// Policy value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "hayat":
		return PolicyHayat, nil
	case "vaa":
		return PolicyVAA, nil
	default:
		return 0, fmt.Errorf("hayat: unknown policy %q", s)
	}
}

// Config controls the simulated platform and lifetime experiment. Zero
// values are invalid; start from DefaultConfig.
type Config struct {
	// Rows, Cols define the core grid (paper: 8×8).
	Rows, Cols int
	// DarkFraction is the minimum dark-silicon fraction (0.25 or 0.50).
	DarkFraction float64
	// Years is the simulated lifetime; EpochYears the aging epoch.
	Years, EpochYears float64
	// WindowSeconds/StepSeconds control the fine-grained transient
	// thermal simulation inside each epoch.
	WindowSeconds, StepSeconds float64
	// MixApps, MixSeed and RemixEpochs control workload-mix generation.
	MixApps     int
	MixSeed     int64
	RemixEpochs int
	// TSafe is the DTM limit in Kelvin (paper: 368.15 K = 95 °C).
	TSafe float64
	// DutyMode is "known", "generic" (50 %) or "worst" (100 %).
	DutyMode string
	// AgingModel selects the wear-out physics: "nbti" (the paper's model,
	// default) or "nbti+hci" (the composite extension adding hot-carrier
	// injection).
	AgingModel string
	// FreqLadderGHz optionally quantises frequencies to discrete DVFS
	// levels (ascending, in GHz). Empty means the paper's continuous
	// core-level frequency scaling.
	FreqLadderGHz []float64
	// TurboBoost lets threads overclock to their core's aged f_max while
	// the core sits below TSafe − TurboMarginK (extension; the paper
	// cites Turbo Boost as an aging aggravator).
	TurboBoost   bool
	TurboMarginK float64
	// SensorNoiseSigma corrupts the health monitors' frequency readings
	// with multiplicative Gaussian noise (extension; 0 = ideal sensors).
	SensorNoiseSigma float64
	// MigrationStallSeconds is the throughput cost of one DTM migration
	// (0 disables the cost model; the default models a cache refill).
	MigrationStallSeconds float64
}

// DefaultConfig returns the paper's experimental setup: 8×8 cores, 50 %
// dark silicon, 10 years in 3-month epochs.
func DefaultConfig() Config {
	sc := sim.DefaultConfig()
	return Config{
		Rows: floorplan.DefaultRows, Cols: floorplan.DefaultCols,
		DarkFraction:          sc.DarkFraction,
		Years:                 sc.Years,
		EpochYears:            sc.EpochYears,
		WindowSeconds:         sc.WindowSeconds,
		StepSeconds:           sc.StepSeconds,
		MixApps:               sc.MixApps,
		MixSeed:               sc.MixSeed,
		RemixEpochs:           sc.RemixEpochs,
		TSafe:                 sc.DTM.TSafe,
		DutyMode:              "known",
		AgingModel:            "nbti",
		MigrationStallSeconds: sc.MigrationStallSeconds,
	}
}

func (c Config) agingModel(seed int64) (aging.FactorModel, error) {
	paths := gates.Generate(gates.DefaultGenerateConfig(), seed)
	switch c.AgingModel {
	case "", "nbti":
		return aging.NewCoreAging(aging.DefaultParams(), paths), nil
	case "nbti+hci":
		return aging.NewCompositeCoreAging(aging.DefaultParams(), aging.DefaultHCIParams(), paths)
	default:
		return nil, fmt.Errorf("hayat: unknown aging model %q", c.AgingModel)
	}
}

func (c Config) dutyMode() (policy.DutyMode, error) {
	switch c.DutyMode {
	case "", "known":
		return policy.DutyKnown, nil
	case "generic":
		return policy.DutyGeneric, nil
	case "worst":
		return policy.DutyWorstCase, nil
	default:
		return 0, fmt.Errorf("hayat: unknown duty mode %q", c.DutyMode)
	}
}

func (c Config) simConfig() sim.Config {
	sc := sim.DefaultConfig()
	sc.DarkFraction = c.DarkFraction
	sc.Years = c.Years
	sc.EpochYears = c.EpochYears
	sc.WindowSeconds = c.WindowSeconds
	sc.StepSeconds = c.StepSeconds
	sc.MixApps = c.MixApps
	sc.MixSeed = c.MixSeed
	sc.RemixEpochs = c.RemixEpochs
	sc.DTM.TSafe = c.TSafe
	sc.TurboBoost = c.TurboBoost
	sc.TurboMarginK = c.TurboMarginK
	sc.SensorNoiseSigma = c.SensorNoiseSigma
	sc.MigrationStallSeconds = c.MigrationStallSeconds
	if len(c.FreqLadderGHz) > 0 {
		levels := make(dvfs.Levels, len(c.FreqLadderGHz))
		for i, g := range c.FreqLadderGHz {
			levels[i] = g * 1e9
		}
		sc.FreqLevels = levels
	}
	return sc
}

// Validate reports configuration errors without building any platform
// model (the same checks NewSystem performs before its expensive setup).
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("hayat: invalid grid %d×%d", c.Rows, c.Cols)
	}
	if _, err := c.dutyMode(); err != nil {
		return err
	}
	if _, err := c.agingModel(0); err != nil {
		return err
	}
	if err := c.simConfig().Validate(); err != nil {
		return err
	}
	// A mix draws whole applications, so a budget below the smallest
	// application's thread count could never run an epoch.
	if on, need := sim.MaxOnCores(c.Rows*c.Cols, c.DarkFraction), workload.FewestThreads(workload.PaperSet()); on < need {
		return fmt.Errorf("hayat: %d×%d cores at dark fraction %v power %d, fewer than the smallest application's %d threads",
			c.Rows, c.Cols, c.DarkFraction, on, need)
	}
	return nil
}

// System is the simulated platform: floorplan, thermal stack, power model
// and variation generator. One System can stamp out many chips.
type System struct {
	cfg  Config
	fp   *floorplan.Floorplan
	tm   *thermal.Model
	pm   power.Model
	gen  *variation.Generator
	arts *ArtifactCache

	stageObs sim.StageObserver
}

// SetStageObserver installs a per-stage epoch timing hook (see
// sim.StageObserver) on every engine subsequently created from this
// System's chips. Call it before handing chips out; it is not safe to
// call concurrently with runs. A nil observer (the default) costs
// nothing.
func (s *System) SetStageObserver(obs sim.StageObserver) { s.stageObs = obs }

// NewSystem validates the configuration and assembles the platform
// models.
func NewSystem(cfg Config) (*System, error) {
	return NewSystemWith(cfg, nil)
}

// NewSystemWith is NewSystem with a shared artifact cache: the thermal
// model (with its modal operators) and the variation generator (with its
// Cholesky factor) are reused across Systems on the same grid, and chips
// stamped from this System share their learned predictors and 3D aging
// tables through the cache as well. A nil cache disables sharing. All
// Systems passing the same cache must use the default platform models
// (they do: thermal config, core dimensions and the variation model are
// fixed by this package), since cache keys only carry grid size, seed and
// aging model.
func NewSystemWith(cfg Config, cache *ArtifactCache) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pf, err := cache.platform(cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, fp: pf.fp, tm: pf.tm, pm: power.DefaultModel(), gen: pf.gen, arts: cache}, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Cores returns the number of cores.
func (s *System) Cores() int { return s.fp.N() }

// Ambient returns the ambient temperature in Kelvin.
func (s *System) Ambient() float64 { return s.tm.Ambient() }

// Chip is one manufactured die with its learned thermal predictor and
// offline aging tables.
type Chip struct {
	sys  *System
	chip *variation.Chip
	pred *thermpredict.Predictor
	ca   aging.FactorModel
	tab  *aging.Table3D
}

// NewChip draws a die from the process-variation model (deterministic in
// the seed), learns its thermal predictor and builds its 3D aging tables
// — the "start-up time effort for a given chip" of Section IV-B. The
// aging physics follow Config.AgingModel.
func (s *System) NewChip(seed int64) (*Chip, error) {
	chip := s.gen.Chip(seed)
	pred, err := s.arts.predictor(s, chip)
	if err != nil {
		return nil, err
	}
	ca, err := s.cfg.agingModel(seed)
	if err != nil {
		return nil, err
	}
	tab, err := s.arts.table(s.cfg.AgingModel, seed, ca)
	if err != nil {
		return nil, err
	}
	return &Chip{sys: s, chip: chip, pred: pred, ca: ca, tab: tab}, nil
}

// Seed returns the chip's manufacturing seed.
func (c *Chip) Seed() int64 { return c.chip.Seed }

// InitialFrequencies returns the per-core year-0 maximum safe frequencies
// in Hz (row-major on the grid).
func (c *Chip) InitialFrequencies() []float64 {
	return append([]float64(nil), c.chip.FMax0...)
}

// LeakageFactors returns the per-core variation leakage multipliers.
func (c *Chip) LeakageFactors() []float64 {
	return append([]float64(nil), c.chip.LeakFactor...)
}

// FrequencySpread returns (f_max − f_min)/f_max across cores — the
// paper's ~30–35 % core-to-core variation figure.
func (c *Chip) FrequencySpread() float64 { return c.chip.FrequencySpread() }

// Epoch is one aging epoch's outcome (see the paper's Fig. 4 evaluation
// scheme).
type Epoch struct {
	Index        int
	YearsElapsed float64
	AvgHealth    float64
	MinHealth    float64
	AvgFMax      float64 // Hz
	MaxFMax      float64 // Hz
	AvgTemp      float64 // K
	PeakTemp     float64 // K
	MaxSwing     float64 // K, largest per-core thermal swing in the window
	DTMEvents    int
	Mapped       int
	Unmapped     int
	AvgIPS       float64
}

// LifetimeResult is one chip's simulated lifetime under one policy.
type LifetimeResult struct {
	Policy       string
	ChipSeed     int64
	DarkFraction float64
	Epochs       []Epoch
	// InitialFMax/FinalFMax/FinalHealth are per-core (Hz / Hz / fraction).
	InitialFMax []float64
	FinalFMax   []float64
	FinalHealth []float64
	// DTMMigrations + DTMThrottles = total DTM events.
	DTMMigrations, DTMThrottles int

	res *sim.Result
}

// DTMEvents returns the total DTM event count.
func (r *LifetimeResult) DTMEvents() int { return r.DTMMigrations + r.DTMThrottles }

// AverageFrequencyAt returns the chip-average aged maximum frequency (Hz)
// after the given number of years, interpolated between epochs.
func (r *LifetimeResult) AverageFrequencyAt(years float64) float64 {
	return r.res.AvgFMaxAt(years)
}

// RunLifetime simulates the chip's whole lifetime under the given policy.
func (c *Chip) RunLifetime(p Policy) (*LifetimeResult, error) {
	//lint:ignore ctxfirst compatibility wrapper: context-free callers get the uncancellable root by design
	return c.RunLifetimeContext(context.Background(), p)
}

// RunLifetimeContext is RunLifetime with cooperative cancellation: the
// context is checked at every epoch boundary, so cancelling actually
// stops the simulation work before the next epoch's transient window. The
// returned error wraps ctx.Err() and names the epoch reached.
func (c *Chip) RunLifetimeContext(ctx context.Context, p Policy) (*LifetimeResult, error) {
	return c.runLifetime(ctx, p, nil, nil, 0)
}

// RunLifetimeCheckpointed runs the first uptoEpoch epochs, writes a JSON
// checkpoint to w, and stops. Resume with ResumeLifetime. uptoEpoch must
// be a workload-remix boundary (multiple of the remix interval).
func (c *Chip) RunLifetimeCheckpointed(p Policy, uptoEpoch int, w io.Writer) error {
	eng, err := c.newEngine(p)
	if err != nil {
		return err
	}
	cp, err := eng.RunCheckpoint(uptoEpoch)
	if err != nil {
		return err
	}
	return sim.WriteCheckpoint(w, cp)
}

// RunLifetimeCheckpointedFile is RunLifetimeCheckpointed writing the
// checkpoint atomically (temp file + rename), so an interrupted write can
// never leave a torn checkpoint at path.
func (c *Chip) RunLifetimeCheckpointedFile(p Policy, uptoEpoch int, path string) error {
	eng, err := c.newEngine(p)
	if err != nil {
		return err
	}
	cp, err := eng.RunCheckpoint(uptoEpoch)
	if err != nil {
		return err
	}
	return sim.WriteCheckpointFile(path, cp)
}

// ResumeLifetime continues a checkpointed run (same chip seed, policy and
// configuration) to the end of the lifetime.
func (c *Chip) ResumeLifetime(p Policy, r io.Reader) (*LifetimeResult, error) {
	eng, err := c.newEngine(p)
	if err != nil {
		return nil, err
	}
	cp, err := sim.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	res, err := eng.Resume(cp)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// ResumeLifetimeFile is ResumeLifetime reading the checkpoint from path.
func (c *Chip) ResumeLifetimeFile(p Policy, path string) (*LifetimeResult, error) {
	eng, err := c.newEngine(p)
	if err != nil {
		return nil, err
	}
	cp, err := sim.ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	res, err := eng.Resume(cp)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// CheckpointSink receives serialised engine checkpoints during a
// checkpointed lifetime run: nextEpoch is the first epoch not yet
// simulated, checkpoint the JSON blob ResumeLifetimeWithCheckpoints
// accepts. Returning an error aborts the run; sinks that persist
// best-effort should log and return nil.
type CheckpointSink func(nextEpoch int, checkpoint []byte) error

// RunLifetimeWithCheckpoints is RunLifetimeContext with periodic
// checkpointing: sink is invoked at every workload-remix boundary that is
// a multiple of everyEpochs (everyEpochs ≤ the remix interval means every
// boundary). On configurations without remix boundaries it degrades to a
// plain run.
func (c *Chip) RunLifetimeWithCheckpoints(ctx context.Context, p Policy, everyEpochs int, sink CheckpointSink) (*LifetimeResult, error) {
	eng, err := c.newEngine(p)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunContextCheckpointed(ctx, everyEpochs, wrapSink(sink))
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// ResumeLifetimeWithCheckpoints continues from a serialised checkpoint
// (same chip seed, policy and configuration) with the same periodic
// checkpointing as RunLifetimeWithCheckpoints. The completed result is
// identical to an uninterrupted run's.
func (c *Chip) ResumeLifetimeWithCheckpoints(ctx context.Context, p Policy, checkpoint []byte, everyEpochs int, sink CheckpointSink) (*LifetimeResult, error) {
	eng, err := c.newEngine(p)
	if err != nil {
		return nil, err
	}
	cp, err := sim.ReadCheckpoint(bytes.NewReader(checkpoint))
	if err != nil {
		return nil, err
	}
	res, err := eng.ResumeContextCheckpointed(ctx, cp, everyEpochs, wrapSink(sink))
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// wrapSink adapts a public CheckpointSink to the engine's, serialising
// each checkpoint to JSON.
func wrapSink(sink CheckpointSink) sim.CheckpointSink {
	if sink == nil {
		return nil
	}
	return func(cp *sim.Checkpoint) error {
		var buf bytes.Buffer
		if err := sim.WriteCheckpoint(&buf, cp); err != nil {
			return err
		}
		return sink(cp.NextEpoch, buf.Bytes())
	}
}

// newEngine wires a simulation engine for this chip and policy.
func (c *Chip) newEngine(p Policy) (*sim.Engine, error) {
	pol, err := buildPolicy(p)
	if err != nil {
		return nil, err
	}
	sc := c.sys.cfg.simConfig()
	dm, err := c.sys.cfg.dutyMode()
	if err != nil {
		return nil, err
	}
	sc.DutyMode = dm
	eng, err := sim.New(sc, pol, c.chip, c.sys.tm, c.sys.pm, c.pred, c.tab)
	if err != nil {
		return nil, err
	}
	eng.SetStageObserver(c.sys.stageObs)
	return eng, nil
}

// RunLifetimeTraced is RunLifetime with a fine-grained trace: when trace
// is non-nil, per-step temperatures and powers of the selected cores (all
// cores when cores is nil) are written as TSV every `everySteps` transient
// steps.
func (c *Chip) RunLifetimeTraced(p Policy, trace io.Writer, cores []int, everySteps int) (*LifetimeResult, error) {
	//lint:ignore ctxfirst compatibility wrapper: context-free callers get the uncancellable root by design
	return c.runLifetime(context.Background(), p, trace, cores, everySteps)
}

// runLifetime wires an engine, attaches the optional trace sink and runs
// the lifetime under ctx.
func (c *Chip) runLifetime(ctx context.Context, p Policy, trace io.Writer, cores []int, everySteps int) (*LifetimeResult, error) {
	eng, err := c.newEngine(p)
	if err != nil {
		return nil, err
	}
	var sink *sim.TSVTrace
	if trace != nil {
		sink = sim.NewTSVTrace(trace, cores)
		if err := eng.SetTrace(sink, everySteps); err != nil {
			return nil, err
		}
	}
	res, err := eng.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if sink != nil && sink.Err() != nil {
		return nil, sink.Err()
	}
	return wrapResult(res), nil
}

func buildPolicy(p Policy) (policy.Policy, error) {
	switch p {
	case PolicyHayat:
		return core.New(core.DefaultConfig())
	case PolicyVAA:
		return baseline.New(baseline.DefaultConfig())
	default:
		return nil, fmt.Errorf("hayat: unknown policy %v", p)
	}
}

func wrapResult(res *sim.Result) *LifetimeResult {
	r := &LifetimeResult{
		Policy:        res.Policy,
		ChipSeed:      res.ChipSeed,
		DarkFraction:  res.Config.DarkFraction,
		InitialFMax:   append([]float64(nil), res.InitialFMax...),
		FinalFMax:     append([]float64(nil), res.FinalFMax...),
		FinalHealth:   append([]float64(nil), res.FinalHealth...),
		DTMMigrations: res.TotalDTM.Migrations,
		DTMThrottles:  res.TotalDTM.Throttles,
		res:           res,
	}
	for _, rec := range res.Records {
		r.Epochs = append(r.Epochs, Epoch{
			Index:        rec.Epoch,
			YearsElapsed: rec.YearsElapsed,
			AvgHealth:    rec.AvgHealth,
			MinHealth:    rec.MinHealth,
			AvgFMax:      rec.AvgFMax,
			MaxFMax:      rec.MaxFMax,
			AvgTemp:      rec.AvgTemp,
			PeakTemp:     rec.PeakTemp,
			MaxSwing:     rec.MaxSwing,
			DTMEvents:    rec.DTMEvents,
			Mapped:       rec.Mapped,
			Unmapped:     rec.Unmapped,
			AvgIPS:       rec.AvgIPS,
		})
	}
	return r
}

// RenderHeatMap renders per-core values as an ASCII heat map on the
// system's grid. lo == hi auto-scales.
func (s *System) RenderHeatMap(values []float64, lo, hi float64) string {
	return report.HeatMap(values, s.fp.Rows, s.fp.Cols, lo, hi)
}

// RenderNumericMap renders per-core values as a numeric grid with the
// given printf format.
func (s *System) RenderNumericMap(values []float64, format string) string {
	return report.NumericMap(values, s.fp.Rows, s.fp.Cols, format)
}

// TSafeDefault is the paper's thermal limit (95 °C) in Kelvin.
const TSafeDefault = 368.15

// compile-time interface checks for the wired policies.
var (
	_ policy.Policy = (*core.Hayat)(nil)
	_ policy.Policy = (*baseline.VAA)(nil)
	_               = dtm.DefaultConfig
)
