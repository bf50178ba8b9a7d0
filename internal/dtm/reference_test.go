package dtm

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/workload"
)

// refManager, with its Step, FrequencyFactor and coldestEligible, is
// Manager as it was before the throttle marks moved from a map to a
// per-core slice, the cooldowns from a map to a list, and Step reused its
// action slice, verbatim but for the names. Do not edit it to follow later changes: the live manager must
// act exactly as it does.
type refManager struct {
	cfg   Config
	stats Stats
	// throttled tracks, per core index, whether the resident thread is
	// currently throttled.
	throttled map[int]bool
	// cooldown tracks, per thread, the remaining Step calls of DTM
	// immunity after a migration.
	cooldown map[*workload.Thread]int
}

func newRefManager(cfg Config) *refManager {
	return &refManager{cfg: cfg, throttled: make(map[int]bool), cooldown: make(map[*workload.Thread]int)}
}

func (m *refManager) FrequencyFactor(i int) float64 {
	if m.throttled[i] {
		return m.cfg.ThrottleFactor
	}
	return 1
}

func (m *refManager) Step(temps, fmax []float64, asg *mapping.Assignment) []Action {
	n := asg.N()
	if len(temps) != n || len(fmax) != n {
		panic("dtm: Step length mismatch")
	}
	var actions []Action

	// Advance migration cooldowns.
	for t, left := range m.cooldown {
		if left <= 1 {
			delete(m.cooldown, t)
		} else {
			m.cooldown[t] = left - 1
		}
	}

	// Recovery first: cores that have cooled sufficiently lose their
	// throttle mark. Iterate by core index, not over the throttled map:
	// the Unthrottle actions are appended to the returned (ordered)
	// action list, so their order must not depend on map iteration.
	for i := 0; i < n; i++ {
		if !m.throttled[i] {
			continue
		}
		t := asg.ThreadOn(i)
		if t == nil {
			delete(m.throttled, i)
			continue
		}
		if temps[i] < m.cfg.TSafe-m.cfg.MigrateMargin {
			delete(m.throttled, i)
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
			if _, cooling := m.cooldown[asg.ThreadOn(i)]; cooling {
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
				m.cooldown[t] = m.cfg.CooldownSteps
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
	return actions
}

func (m *refManager) coldestEligible(temps, fmax []float64, asg *mapping.Assignment, t *workload.Thread) int {
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

func isAssigned(asg *mapping.Assignment, th *workload.Thread) bool {
	_, ok := asg.CoreOf(th)
	return ok
}

// TestStepMatchesReference drives Manager and refManager through the
// same random runs of Step calls: 4 to 64 cores, a share of them
// powered, temperatures around T_safe and its migration margin, so
// migrations, throttles, recoveries and cooldowns all occur, and
// per-core fmax of which some cores are too slow to receive a thread.
// Between steps a thread sometimes leaves its core or lands on a dark
// one, as a remap does. After every Step the actions, the assignment, the temperatures
// (including the write to a vacated core), every core's frequency factor
// and the counts must agree. The actions of each Step are compared
// before the next one, which may reuse their slice.
func TestStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	kinds := map[ActionKind]int{}
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(61)
		cfg := DefaultConfig()
		cfg.CooldownSteps = []int{0, 1, 3, 50}[rng.Intn(4)]
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefManager(cfg)
		var threads []*workload.Thread
		for len(threads) < n {
			threads = append(threads, testThreads(t, 8)...)
		}
		asg, refAsg := mapping.New(n), mapping.New(n)
		for i, c := range rng.Perm(n)[:1+rng.Intn(n)] {
			if err := asg.Assign(threads[i], c); err != nil {
				t.Fatal(err)
			}
			if err := refAsg.Assign(threads[i], c); err != nil {
				t.Fatal(err)
			}
		}
		fmax := make([]float64, n)
		for i := range fmax {
			fmax[i] = []float64{1.5e9, 2.5e9, 3e9}[rng.Intn(3)]
		}
		temps, refTemps := make([]float64, n), make([]float64, n)
		for step := 0; step < 40; step++ {
			// Between windows the policy remaps: a thread leaves its core,
			// throttled or not, or an idle thread lands on a dark core.
			if rng.Intn(4) == 0 {
				c := rng.Intn(n)
				if th := asg.ThreadOn(c); th != nil {
					asg.Unassign(th)
					refAsg.Unassign(th)
				} else if th := threads[rng.Intn(len(threads))]; !isAssigned(asg, th) {
					if err := asg.Assign(th, c); err != nil {
						t.Fatal(err)
					}
					if err := refAsg.Assign(th, c); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := range temps {
				temps[i] = cfg.TSafe - 25 + 35*rng.Float64()
				refTemps[i] = temps[i]
			}
			got := m.Step(temps, fmax, asg)
			want := ref.Step(refTemps, fmax, refAsg)
			desc := fmt.Sprintf("trial %d (%d cores, cooldown %d) step %d", trial, n, cfg.CooldownSteps, step)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: actions %+v, reference %+v", desc, got, want)
			}
			for _, a := range got {
				kinds[a.Kind]++
			}
			for i := 0; i < n; i++ {
				if asg.ThreadOn(i) != refAsg.ThreadOn(i) {
					t.Fatalf("%s: core %d holds %p, reference %p", desc, i, asg.ThreadOn(i), refAsg.ThreadOn(i))
				}
				if temps[i] != refTemps[i] {
					t.Fatalf("%s: temps[%d] = %v, reference %v", desc, i, temps[i], refTemps[i])
				}
				if f, w := m.FrequencyFactor(i), ref.FrequencyFactor(i); f != w {
					t.Fatalf("%s: FrequencyFactor(%d) = %v, reference %v", desc, i, f, w)
				}
			}
			if m.Stats() != ref.stats {
				t.Fatalf("%s: stats %+v, reference %+v", desc, m.Stats(), ref.stats)
			}
		}
	}
	for _, k := range []ActionKind{Migrate, Throttle, Unthrottle} {
		if kinds[k] < 100 {
			t.Fatalf("only %d actions of kind %d; the runs do not exercise every path", kinds[k], k)
		}
	}
}
