// Package dtm implements dynamic thermal management as configured in the
// paper's experimental setup (Section V): when a core reaches the maximum
// safe temperature T_safe (95 °C, as adopted in the Intel mobile i5), its
// thread is migrated to the coldest core — provided that core is below
// T_safe − 10 °C and fast enough for the thread — and is throttled
// otherwise. Every intervention is counted; Fig. 7 compares the DTM event
// counts of Hayat and VAA.
package dtm

import (
	"fmt"

	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/workload"
)

// Config parameterises the DTM policy.
type Config struct {
	// TSafe is the maximum safe temperature in Kelvin (368.15 K = 95 °C).
	TSafe float64
	// MigrateMargin is the headroom a destination core must have:
	// T_dest < TSafe − MigrateMargin (paper: 10 °C → 10 K).
	MigrateMargin float64
	// ThrottleFactor is the frequency multiplier applied to a thread that
	// cannot be migrated (runs below its required frequency until the
	// core cools back under TSafe).
	ThrottleFactor float64
	// CooldownSteps is the number of Step calls a just-migrated thread is
	// immune from further DTM action. It suppresses migration ping-pong
	// between a persistent hot cluster and its cold border (real DTM
	// controllers rate-limit interventions the same way).
	CooldownSteps int
	// FreqLevels is the optional discrete DVFS ladder used to judge
	// migration destinations; nil means continuous frequencies.
	FreqLevels dvfs.Levels
}

// DefaultConfig returns the paper's DTM settings.
func DefaultConfig() Config {
	return Config{TSafe: 368.15, MigrateMargin: 10, ThrottleFactor: 0.7, CooldownSteps: 50}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TSafe <= 0 {
		return fmt.Errorf("dtm: TSafe must be positive, got %v", c.TSafe)
	}
	if c.MigrateMargin < 0 {
		return fmt.Errorf("dtm: negative MigrateMargin %v", c.MigrateMargin)
	}
	if c.ThrottleFactor <= 0 || c.ThrottleFactor > 1 {
		return fmt.Errorf("dtm: ThrottleFactor %v outside (0,1]", c.ThrottleFactor)
	}
	if c.CooldownSteps < 0 {
		return fmt.Errorf("dtm: negative CooldownSteps")
	}
	if err := c.FreqLevels.Validate(); err != nil {
		return err
	}
	return nil
}

// ActionKind distinguishes DTM interventions.
type ActionKind int

const (
	// Migrate moves a thread from a hot core to a cold one.
	Migrate ActionKind = iota
	// Throttle reduces a thread's frequency in place.
	Throttle
	// Unthrottle restores a previously throttled thread (not counted as
	// a DTM event — it is the recovery, not the emergency).
	Unthrottle
)

// Action records one DTM intervention.
type Action struct {
	Kind     ActionKind
	Thread   *workload.Thread
	FromCore int
	ToCore   int // Migrate only
}

// Stats accumulates DTM accounting across a run.
type Stats struct {
	Migrations int
	Throttles  int
}

// Events returns the total DTM event count (migrations + throttles), the
// quantity of Fig. 7.
func (s Stats) Events() int { return s.Migrations + s.Throttles }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Migrations += other.Migrations
	s.Throttles += other.Throttles
}

// Manager applies the DTM policy to a live assignment.
type Manager struct {
	cfg   Config
	stats Stats
	// throttled[i] reports whether the thread resident on core i is
	// currently throttled. Step grows it to the assignment's core count;
	// a core beyond its length is not throttled.
	throttled []bool
	// cooldown lists the threads in their DTM immunity after a
	// migration, each once, with the Step calls it has left.
	cooldown []cooling
	// actions is the slice Step returns, reused from call to call.
	actions []Action
}

// cooling is one thread's remaining DTM immunity.
type cooling struct {
	t    *workload.Thread
	left int
}

// coolingDown reports whether thread t is immune from DTM action.
func (m *Manager) coolingDown(t *workload.Thread) bool {
	for _, c := range m.cooldown {
		if c.t == t {
			return true
		}
	}
	return false
}

// NewManager builds a manager; the config must validate.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg}, nil
}

// Stats returns the accumulated accounting.
func (m *Manager) Stats() Stats { return m.stats }

// FrequencyFactor returns the multiplier to apply to the thread's required
// frequency on core i (1 when unthrottled).
func (m *Manager) FrequencyFactor(i int) float64 {
	if i < len(m.throttled) && m.throttled[i] {
		return m.cfg.ThrottleFactor
	}
	return 1
}

// Step inspects the per-core temperatures and intervenes:
//
//   - Threads on cores at or above TSafe are migrated to the coldest
//     eligible core (dark, below TSafe − MigrateMargin, and with
//     fmax ≥ the thread's required frequency), or throttled when no such
//     core exists.
//   - Throttled threads whose core has cooled below TSafe − MigrateMargin
//     are restored.
//
// fmax is the per-core current (aged) maximum safe frequency. The
// assignment is mutated in place; the performed actions are returned in
// order, in a slice that is valid until the next Step.
//
// A migration writes TSafe − 2·MigrateMargin into temps at the vacated
// core, so the rest of this call does not pick that core again. temps is
// the caller's slice, so the caller sees the write too (the engine's
// live temperatures: its next step's leakage and the trace read it).
func (m *Manager) Step(temps, fmax []float64, asg *mapping.Assignment) []Action {
	n := asg.N()
	if len(temps) != n || len(fmax) != n {
		panic("dtm: Step length mismatch")
	}
	if len(m.throttled) < n {
		m.throttled = append(m.throttled, make([]bool, n-len(m.throttled))...)
	}
	actions := m.actions[:0]

	// Advance migration cooldowns.
	kept := m.cooldown[:0]
	for _, c := range m.cooldown {
		if c.left > 1 {
			c.left--
			kept = append(kept, c)
		}
	}
	m.cooldown = kept

	// Recovery first: cores that have cooled sufficiently lose their
	// throttle mark, in core order.
	for i := 0; i < n; i++ {
		if !m.throttled[i] {
			continue
		}
		t := asg.ThreadOn(i)
		if t == nil {
			m.throttled[i] = false
			continue
		}
		if temps[i] < m.cfg.TSafe-m.cfg.MigrateMargin {
			m.throttled[i] = false
			actions = append(actions, Action{Kind: Unthrottle, Thread: t, FromCore: i})
		}
	}

	// Handle hot cores, hottest first so the most urgent thread gets the
	// coldest destination.
	for {
		hot := -1
		for i := 0; i < n; i++ {
			if asg.ThreadOn(i) == nil || temps[i] < m.cfg.TSafe {
				continue
			}
			if m.throttled[i] {
				continue // already handled; wait for cooling
			}
			if m.coolingDown(asg.ThreadOn(i)) {
				continue // recently migrated; let the thermals settle
			}
			if hot < 0 || temps[i] > temps[hot] {
				hot = i
			}
		}
		if hot < 0 {
			break
		}
		t := asg.ThreadOn(hot)
		dest := m.coldestEligible(temps, fmax, asg, t)
		if dest >= 0 {
			if err := asg.Migrate(t, dest); err != nil {
				panic("dtm: migration to vetted destination failed: " + err.Error())
			}
			// The destination inherits the hot core's history only
			// thermally; mark nothing. The hot core is now dark.
			m.stats.Migrations++
			if m.cfg.CooldownSteps > 0 {
				// t was picked as not cooling, so it has no entry yet.
				m.cooldown = append(m.cooldown, cooling{t, m.cfg.CooldownSteps})
			}
			actions = append(actions, Action{Kind: Migrate, Thread: t, FromCore: hot, ToCore: dest})
			// Treat the vacated core as cooling; do not revisit it this
			// step (its temperature reading is stale now).
			temps[hot] = m.cfg.TSafe - 2*m.cfg.MigrateMargin
		} else {
			m.throttled[hot] = true
			m.stats.Throttles++
			actions = append(actions, Action{Kind: Throttle, Thread: t, FromCore: hot})
		}
	}
	m.actions = actions
	return actions
}

// coldestEligible returns the coldest dark core that satisfies the
// migration criteria for thread t, or −1.
func (m *Manager) coldestEligible(temps, fmax []float64, asg *mapping.Assignment, t *workload.Thread) int {
	best := -1
	for i := 0; i < asg.N(); i++ {
		if asg.ThreadOn(i) != nil {
			continue
		}
		if temps[i] >= m.cfg.TSafe-m.cfg.MigrateMargin {
			continue
		}
		reqF, feasible := m.cfg.FreqLevels.Required(t.MinFreq())
		if !feasible || fmax[i] < reqF {
			continue
		}
		if best < 0 || temps[i] < temps[best] {
			best = i
		}
	}
	return best
}
