// Package exact implements the problem formulation of Section IV-A as an
// exact optimiser: find the joint patterning-and-mapping m_(i,j,k) that
// maximises the sum of predicted next healths (Eq. 6) subject to the
// thermal-safety constraint (Eq. 4), the one-thread-per-core constraint
// (Eq. 5) and the dark-silicon budget.
//
// The paper notes the ILP "is not feasible to be evaluated at run time in
// polynomial time complexity" — which is exactly why Hayat is a heuristic.
// This package exists to validate the heuristic: on instances small enough
// to enumerate, Hayat's solutions can be compared against the true
// optimum (see the optimality-gap tests and benchmarks).
//
// The solver performs depth-first enumeration over thread→core
// assignments with feasibility pruning; the search is capped by
// MaxNodes to keep it deliberate rather than accidental exponential work.
package exact

import (
	"fmt"

	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/workload"
)

// Config bounds the search.
type Config struct {
	// MaxNodes caps the number of search-tree nodes; Map fails once the
	// cap is exceeded (the instance is too large for exact solving).
	MaxNodes int
}

// DefaultConfig allows roughly a hundred thousand nodes — instances of
// ~5 threads × 12 cores.
func DefaultConfig() Config { return Config{MaxNodes: 2_000_000} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxNodes < 1 {
		return fmt.Errorf("exact: MaxNodes must be positive, got %d", c.MaxNodes)
	}
	return nil
}

// Solver is the exact optimiser. It implements policy.Policy so it can be
// swapped into the simulation engine on small platforms.
type Solver struct {
	cfg Config
}

// New builds a solver.
func New(cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Solver{cfg: cfg}, nil
}

// Name implements policy.Policy.
func (s *Solver) Name() string { return "Exact" }

// ErrTooLarge is wrapped by Map when the node cap is exceeded.
var ErrTooLarge = fmt.Errorf("exact: instance exceeds the search budget")

// Objective evaluates a complete assignment exactly as the search does:
// the number of mapped threads (lexicographically dominant) and the sum
// of predicted next healths over all cores. It returns ok=false when the
// assignment violates T_safe.
func Objective(ctx *policy.Context, asg *mapping.Assignment) (mapped int, healthSum float64, ok bool) {
	n := ctx.N()
	pdyn := make([]float64, n)
	on := make([]bool, n)
	duty := make([]float64, n)
	for i := 0; i < n; i++ {
		if th := asg.ThreadOn(i); th != nil {
			pdyn[i] = ctx.ThreadDynPower(th)
			on[i] = true
			duty[i] = ctx.DutyMode.Duty(th)
			mapped++
		}
	}
	temps := ctx.Predictor.Predict(nil, nil, pdyn, on)
	for i := 0; i < n; i++ {
		if temps[i] > ctx.TSafe {
			return mapped, 0, false
		}
	}
	for i := 0; i < n; i++ {
		healthSum += ctx.Health[i].PredictFactor(ctx.AgingTable, temps[i], duty[i], ctx.HorizonYears)
	}
	return mapped, healthSum, true
}

// Map enumerates all feasible assignments and returns the best one under
// the (mapped count, Σ next health) objective. Threads that cannot be
// placed in the optimal solution are reported unmapped.
func (s *Solver) Map(ctx *policy.Context, threads []*workload.Thread) (policy.Result, error) {
	if err := ctx.Validate(); err != nil {
		return policy.Result{}, err
	}
	n := ctx.N()

	st := &search{
		ctx:        ctx,
		threads:    threads,
		cfg:        s.cfg,
		asg:        mapping.New(n),
		bestMapped: -1,
	}
	if err := st.dfs(0, 0); err != nil {
		return policy.Result{}, err
	}
	if st.best == nil {
		// Even the empty assignment is feasible unless the idle chip
		// violates TSafe, which Validate's physical configs never do —
		// but guard anyway.
		return policy.Result{}, fmt.Errorf("exact: no feasible assignment found")
	}
	res := policy.Result{Assignment: st.best}
	for _, t := range threads {
		if _, ok := st.best.CoreOf(t); !ok {
			res.Unmapped = append(res.Unmapped, t)
		}
	}
	return res, nil
}

type search struct {
	ctx     *policy.Context
	threads []*workload.Thread
	cfg     Config

	asg        *mapping.Assignment
	nodes      int
	best       *mapping.Assignment
	bestMapped int
	bestHealth float64
}

// dfs assigns threads[idx:] with `mapped` already placed.
func (st *search) dfs(idx, mapped int) error {
	st.nodes++
	if st.nodes > st.cfg.MaxNodes {
		return fmt.Errorf("%w: more than %d nodes", ErrTooLarge, st.cfg.MaxNodes)
	}
	if idx == len(st.threads) {
		st.evaluate(mapped)
		return nil
	}
	// Upper bound: even mapping every remaining thread cannot beat the
	// incumbent's mapped count → only continue if it can tie (health may
	// still improve) or beat.
	remaining := len(st.threads) - idx
	if mapped+remaining < st.bestMapped {
		return nil
	}
	t := st.threads[idx]
	// Option 1: leave this thread unmapped.
	if err := st.dfs(idx+1, mapped); err != nil {
		return err
	}
	// Option 2: place it on every eligible free core (within budget).
	if mapped >= st.ctx.MaxOnCores {
		return nil
	}
	reqF, feasible := st.ctx.RequiredFreq(t)
	if !feasible {
		return nil
	}
	for c := 0; c < st.ctx.N(); c++ {
		if st.asg.ThreadOn(c) != nil || st.ctx.FMax[c] < reqF {
			continue
		}
		if err := st.asg.Assign(t, c); err != nil {
			return err
		}
		if err := st.dfs(idx+1, mapped+1); err != nil {
			return err
		}
		st.asg.Unassign(t)
	}
	return nil
}

func (st *search) evaluate(mapped int) {
	if mapped < st.bestMapped {
		return
	}
	gotMapped, health, ok := Objective(st.ctx, st.asg)
	if !ok {
		return
	}
	if gotMapped > st.bestMapped || (gotMapped == st.bestMapped && health > st.bestHealth) {
		st.best = st.asg.Clone()
		st.bestMapped = gotMapped
		st.bestHealth = health
	}
}

var _ policy.Policy = (*Solver)(nil)
