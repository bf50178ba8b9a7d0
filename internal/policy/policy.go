// Package policy defines the interface between the simulation engine and
// the run-time mapping policies (Hayat in internal/core, the VAA baseline
// in internal/baseline): the per-epoch chip context a policy reads, and
// the thread-to-core assignment it produces.
package policy

import (
	"fmt"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/variation"
	"github.com/kit-ces/hayat/internal/workload"
)

// DutyMode selects how a policy estimates the duty cycle it feeds into
// health prediction (Section IV-C: "generic (i.e., 50 %), known (estimated
// from offline data …), or worst-case (85–100 %)").
type DutyMode int

const (
	// DutyKnown uses the thread profile's time-averaged duty cycle.
	DutyKnown DutyMode = iota
	// DutyGeneric uses a flat 50 %.
	DutyGeneric
	// DutyWorstCase uses 100 %.
	DutyWorstCase
)

// Duty returns the duty-cycle estimate for a thread under the mode.
func (m DutyMode) Duty(t *workload.Thread) float64 {
	switch m {
	case DutyGeneric:
		return 0.5
	case DutyWorstCase:
		return 1.0
	default:
		return t.App.Profile.AverageDuty()
	}
}

// Context is the chip state a policy sees at a mapping decision. All
// slices are per-core. Policies must treat the context as read-only.
type Context struct {
	// Chip carries the variation maps (FMax0, LeakFactor).
	Chip *variation.Chip
	// Predictor is the learned online thermal predictor.
	Predictor *thermpredict.Predictor
	// AgingTable is the offline 3D aging table.
	AgingTable *aging.Table3D
	// PowerModel computes dynamic/leakage power.
	PowerModel power.Model

	// TSafe is the thermal limit in Kelvin (Eq. 4 constraint).
	TSafe float64
	// MaxOnCores is the dark-silicon budget: at most this many cores may
	// be powered on.
	MaxOnCores int
	// HorizonYears is the health-prediction horizon (one aging epoch,
	// e.g. 0.25 or 1 year).
	HorizonYears float64
	// DutyMode selects the duty-cycle estimate.
	DutyMode DutyMode

	// Health is the per-core aging state (health = fmax(t)/fmax(0)).
	Health []aging.State
	// FMax is the per-core current aged maximum safe frequency in Hz
	// (FMax0 · Health.Factor) — what the health monitors report.
	FMax []float64
	// Temps is the most recent measured per-core temperature (Kelvin).
	Temps []float64
	// FreqLevels is the optional discrete DVFS ladder; nil means the
	// paper's continuous core-level frequency scaling.
	FreqLevels dvfs.Levels
	// PrevOn is the previous epoch's Dark Core Map (true = powered), or
	// nil at the first decision. Policies may use it to keep the DCM
	// stable across epochs — gratuitous rotation of the powered set
	// spreads NBTI stress onto fresh cores whose y^(1/6) aging is at its
	// steepest, accelerating chip-average degradation.
	PrevOn []bool

	// Scratch is policy-owned working memory carried across decisions on
	// the same context-reusing caller (the sim engine reuses one Context
	// value for a whole run). A policy may stash any reusable state here
	// — arenas, sorters — keyed by its own type assertion; a type
	// mismatch (different policy, resized chip) simply means "allocate
	// fresh". Scratch is an execution property: it must never change a
	// decision, only its allocation count. The two fields below are
	// exempt from the read-only rule above — they exist for the policy
	// to write.
	Scratch any

	// ReuseAssignment optionally hands the policy an assignment the
	// caller no longer needs (typically the previous epoch's). The policy
	// may Clear() it and use it as the backing store of its result
	// instead of allocating a new one, or ignore it entirely. The caller
	// must not touch the old assignment after passing it here.
	ReuseAssignment *mapping.Assignment
}

// Validate checks the context for structural consistency.
func (c *Context) Validate() error {
	if c.Chip == nil || c.Predictor == nil || c.AgingTable == nil {
		return fmt.Errorf("policy: context missing chip, predictor or aging table")
	}
	n := len(c.Chip.FMax0)
	if len(c.Health) != n || len(c.FMax) != n || len(c.Temps) != n {
		return fmt.Errorf("policy: context slice lengths inconsistent with %d cores", n)
	}
	if c.TSafe <= 0 {
		return fmt.Errorf("policy: TSafe must be positive, got %v", c.TSafe)
	}
	if c.MaxOnCores <= 0 || c.MaxOnCores > n {
		return fmt.Errorf("policy: MaxOnCores %d outside [1,%d]", c.MaxOnCores, n)
	}
	if c.HorizonYears <= 0 {
		return fmt.Errorf("policy: HorizonYears must be positive, got %v", c.HorizonYears)
	}
	if err := c.FreqLevels.Validate(); err != nil {
		return err
	}
	return nil
}

// RequiredFreq returns the operating frequency a core must sustain to run
// thread t — the thread's minimum frequency rounded up to the DVFS ladder
// when one is installed. ok is false when the ladder tops out below the
// requirement (the thread cannot run at all).
func (c *Context) RequiredFreq(t *workload.Thread) (float64, bool) {
	return c.FreqLevels.Required(t.MinFreq())
}

// N returns the core count.
func (c *Context) N() int { return len(c.FMax) }

// ThreadDynPower estimates the time-averaged dynamic power of a thread
// running at its (ladder-quantised) required frequency.
func (c *Context) ThreadDynPower(t *workload.Thread) float64 {
	p := t.App.Profile
	total, wsum := p.TotalDuration(), 0.0
	for _, ph := range p.Phases {
		wsum += ph.Activity * ph.Duration
	}
	avgActivity := 0.0
	if total > 0 {
		avgActivity = wsum / total
	}
	f, ok := c.RequiredFreq(t)
	if !ok {
		f = t.MinFreq()
	}
	return c.PowerModel.DynamicPower(f, avgActivity)
}

// Result is a mapping decision plus diagnostics.
type Result struct {
	Assignment *mapping.Assignment
	// Unmapped lists threads the policy could not place (no eligible core
	// within the dark-silicon and thermal budgets).
	Unmapped []*workload.Thread
}

// Policy is a run-time mapping policy.
type Policy interface {
	// Name identifies the policy in reports ("Hayat", "VAA").
	Name() string
	// Map produces a thread-to-core assignment for the given runnable
	// threads under the context's constraints. Implementations must not
	// retain the context.
	Map(ctx *Context, threads []*workload.Thread) (Result, error)
}
