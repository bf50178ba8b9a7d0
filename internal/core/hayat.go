// Package core implements Hayat — the paper's primary contribution: the
// variation- and dark-silicon-aware run-time aging-management heuristic of
// Algorithm 1 plus the online health-map estimation of Section IV-B.
//
// For every runnable thread, Hayat evaluates each eligible candidate core:
// it predicts the chip's temperature response to placing the thread there
// (through the learned online thermal predictor), discards candidates that
// would violate T_safe (Eq. 4), estimates each core's next health through
// the offline 3D aging tables, and scores the candidate with the
// empirical weighting function of Eq. 9:
//
//	w = min(w_max, α/(f_max,i − f_req)) + β·H_cand,next/H_cand,t
//
// The first term matches threads tightly to cores that are just fast
// enough — preserving high-frequency cores for later lifetime years or
// deadline-critical work — and the second prefers candidates whose health
// would degrade least, which implicitly spreads load away from hot
// clusters. The (α, β) pair switches between an early-aging preset
// (α = 0.6, β = 1: health-driven balancing) and a late-aging preset
// (α = 4, β = 0.3: strict frequency matching) as the chip's average
// health declines.
package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/workload"
)

// Config holds the Hayat tuning constants (Section V).
type Config struct {
	// AlphaEarly/BetaEarly apply while the chip is young (average health
	// above LateAgingThreshold); AlphaLate/BetaLate afterwards.
	AlphaEarly, BetaEarly float64
	AlphaLate, BetaLate   float64
	// WMax caps the frequency-matching term (paper: 10).
	WMax float64
	// LateAgingThreshold is the average-health boundary between the
	// early- and late-aging weight presets.
	LateAgingThreshold float64
	// AffectedDeltaK prunes health re-evaluation to cores whose predicted
	// temperature moves by at least this many Kelvin for a candidate
	// (Algorithm 1 line 8's "might only be required for cores that are
	// affected"). Zero disables pruning (the FullPredict ablation).
	AffectedDeltaK float64
	// SpreadWeight and SpreadCap implement Hayat's first duty — the
	// temperature-optimising Dark Core Map (Section I-B contribution (1),
	// Fig. 2(h,p)): each candidate earns SpreadWeight per Manhattan hop
	// of distance (capped at SpreadCap hops) to the nearest already
	// powered core, so the powered set spreads across the die and dark
	// cores sit between active ones as heat-escape paths. Setting
	// SpreadWeight to zero disables DCM optimisation (an ablation: the
	// mapping then degenerates to VAA-like clustering on correlated
	// variation maps).
	SpreadWeight float64
	SpreadCap    int
	// WastePenaltyPerGHz subtracts weight proportional to the frequency
	// slack (f_max,cand − f_req) in GHz. Eq. 9's reciprocal term rewards
	// tight matches but decays too slowly to stop the spread bonus from
	// parking slow threads on rare fast cores; the linear penalty makes
	// "do not waste fast cores" explicit (the paper's own weighting is
	// described as empirically formulated).
	WastePenaltyPerGHz float64
	// IncumbentWeight rewards candidates that were already powered in the
	// previous epoch's DCM. Keeping the powered set stable matters under
	// reaction–diffusion aging: y^(1/6) is concave, so rotating stress
	// onto fresh cores ages the chip average faster than re-using an
	// already-stressed (but cooler, spread) set.
	IncumbentWeight float64
}

// DefaultConfig returns the paper's experimentally chosen constants.
func DefaultConfig() Config {
	return Config{
		AlphaEarly: 0.6, BetaEarly: 1.0,
		AlphaLate: 4.0, BetaLate: 0.3,
		WMax:               10,
		LateAgingThreshold: 0.96,
		AffectedDeltaK:     0.05,
		SpreadWeight:       0.8,
		SpreadCap:          4,
		WastePenaltyPerGHz: 0.6,
		IncumbentWeight:    8.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.AlphaEarly <= 0 || c.AlphaLate <= 0 {
		return fmt.Errorf("hayat: alpha coefficients must be positive")
	}
	if c.BetaEarly < 0 || c.BetaLate < 0 {
		return fmt.Errorf("hayat: beta coefficients must be non-negative")
	}
	if c.WMax <= 0 {
		return fmt.Errorf("hayat: WMax must be positive, got %v", c.WMax)
	}
	if c.LateAgingThreshold <= 0 || c.LateAgingThreshold > 1 {
		return fmt.Errorf("hayat: LateAgingThreshold %v outside (0,1]", c.LateAgingThreshold)
	}
	if c.AffectedDeltaK < 0 {
		return fmt.Errorf("hayat: negative AffectedDeltaK")
	}
	if c.SpreadWeight < 0 || c.SpreadCap < 0 {
		return fmt.Errorf("hayat: negative spread parameters")
	}
	if c.WastePenaltyPerGHz < 0 {
		return fmt.Errorf("hayat: negative WastePenaltyPerGHz")
	}
	if c.IncumbentWeight < 0 {
		return fmt.Errorf("hayat: negative IncumbentWeight")
	}
	return nil
}

// Hayat is the run-time aging manager. The zero value is not usable; use
// New.
type Hayat struct {
	cfg Config
}

// New builds a Hayat policy. The config must validate.
func New(cfg Config) (*Hayat, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hayat{cfg: cfg}, nil
}

// Name implements policy.Policy.
func (h *Hayat) Name() string { return "Hayat" }

// weights returns the active (α, β) pair for the chip's average health.
func (h *Hayat) weights(avgHealth float64) (alpha, beta float64) {
	if avgHealth < h.cfg.LateAgingThreshold {
		return h.cfg.AlphaLate, h.cfg.BetaLate
	}
	return h.cfg.AlphaEarly, h.cfg.BetaEarly
}

// candidate is one entry of the solution list S of Algorithm 1. Pass 1 of
// place fills the parts of Eq. 9 that need no aging-table inversion plus
// an upper bound on the weight; pickCandidate adds the next health and the
// exact weight only where that bound can still win, and the chip-average
// next health only on an exact weight tie.
type candidate struct {
	core                 int
	wFreq, spread, dfGHz float64
	incumbent            bool
	hNow                 float64 // current health, in (0, 1]
	tCand                float64 // the candidate's own predicted temperature
	ub                   float64 // weight with the next health replaced by the table bound
	hNext                float64 // next health; set with weight
	weight               float64 // exact weight; set only for candidates the bound cannot rule out
	hAvgNext             float64 // chip-average next health; set only on ties
	tMaxNext             float64 // peak predicted temperature; set with hAvgNext
}

// weight is Eq. 9 plus the DCM-optimisation spread, the waste penalty and
// the incumbency bonus (see Config) for a candidate whose next health is
// hNext. With β ≥ 0 and c.hNow > 0 every operation is monotone
// non-decreasing in hNext, and IEEE rounding preserves order for +, −, ×
// and ÷ by a positive number, so the computed weight never decreases as
// hNext grows: weight(c, β, U) bounds it for every hNext ≤ U.
func (h *Hayat) weight(c *candidate, beta, hNext float64) float64 {
	w := c.wFreq + beta*hNext/c.hNow + c.spread - h.cfg.WastePenaltyPerGHz*c.dfGHz
	if c.incumbent {
		w += h.cfg.IncumbentWeight
	}
	return w
}

// below reports whether c's bound proves its weight lower than thr. A
// bound that is not finite proves nothing, so every non-finite weight is
// computed and reported.
func (c *candidate) below(thr float64) bool {
	return c.ub < thr && !math.IsInf(c.ub, -1)
}

// pickCandidate returns the index in cs of the first element of
// S.sort-by(weight): the highest weight, then the highest chip-average
// next health, then the lowest peak temperature, then the earliest slot
// (cs is in ascending core order, so that is the lowest core index).
//
// Every slot carries its bound ub. weigh must set a slot's exact weight,
// which may not exceed ub; tieHealth must return a slot's chip-average
// next health and set its peak temperature. The slot with the highest
// bound is weighed first and its
// weight is the threshold; a slot whose bound lies below it is never
// weighed, because its weight ≤ ub < threshold ≤ the best weight means it
// can neither win nor tie. tieHealth runs only for slots tied at the top
// weight. A non-finite weight is an error.
func pickCandidate(cs []candidate, weigh func(*candidate), tieHealth func(*candidate) float64) (int, error) {
	top := 0
	for i := 1; i < len(cs); i++ {
		if cs[i].ub > cs[top].ub {
			top = i
		}
	}
	weigh(&cs[top])
	thr := cs[top].weight
	best, tied := -1, false
	for i := range cs {
		c := &cs[i]
		if i != top {
			if c.below(thr) {
				continue
			}
			weigh(c)
		}
		if math.IsNaN(c.weight) || math.IsInf(c.weight, 0) {
			return 0, fmt.Errorf("hayat: non-finite weight %v for core %d", c.weight, c.core)
		}
		switch {
		case best < 0 || c.weight > cs[best].weight:
			best, tied = i, false
		case c.weight == cs[best].weight:
			tied = true
		}
	}
	if !tied {
		return best, nil
	}
	w := cs[best].weight
	cs[best].hAvgNext = tieHealth(&cs[best])
	for i := best + 1; i < len(cs); i++ {
		c := &cs[i]
		if (i != top && c.below(thr)) || c.weight != w {
			continue
		}
		c.hAvgNext = tieHealth(c)
		if b := &cs[best]; c.hAvgNext > b.hAvgNext || (c.hAvgNext == b.hAvgNext && c.tMaxNext < b.tMaxNext) {
			best = i
		}
	}
	return best, nil
}

// placeScratch is place's reusable working set, carried across epochs in
// policy.Context.Scratch so the steady-state mapping decision allocates
// nothing. It is keyed by core count; a mismatch — first call, resized
// chip — rebuilds it. Scratch never influences a decision: every buffer
// is fully reinitialised per call.
type placeScratch struct {
	n int

	order policy.DemandOrder
	cands []candidate
	pdyn  []float64
	duty  []float64
	yEq   []float64
	hNext []float64 // baseline per-core next health at the current base field
	base  []float64
	total []float64 // the predictor's total-power scratch
	on    []bool
	tNext []float64 // predicted-temperature scratch
	// near[c] is the Manhattan distance from core c to the nearest
	// powered core, capped at SpreadCap: the spread term's distance,
	// kept up to date as place powers cores.
	near  []int
	unmap []*workload.Thread
}

// scratchFor returns the context's placeScratch, rebuilding it when the
// core count changed or the context carries none.
func (h *Hayat) scratchFor(ctx *policy.Context, n int) *placeScratch {
	if s, ok := ctx.Scratch.(*placeScratch); ok && s.n == n {
		return s
	}
	s := &placeScratch{
		n:     n,
		cands: make([]candidate, 0, n),
		pdyn:  make([]float64, n),
		duty:  make([]float64, n),
		yEq:   make([]float64, n),
		hNext: make([]float64, n),
		total: make([]float64, n),
		on:    make([]bool, n),
		tNext: make([]float64, n),
		near:  make([]int, n),
	}
	ctx.Scratch = s
	return s
}

// seedNear sets near[c] to the distance from core c to the nearest core
// in on, capped at SpreadCap.
func (h *Hayat) seedNear(ctx *policy.Context, near []int, on []bool) {
	for c := range near {
		near[c] = h.cfg.SpreadCap
	}
	for i, powered := range on {
		if powered {
			h.updateNear(ctx, near, i)
		}
	}
}

// updateNear lowers near to account for core i being powered. Every
// near[c] is at most SpreadCap, so only a core closer than SpreadCap to
// i can be lowered: it visits that diamond, row by row, and leaves the
// rest as they are.
func (h *Hayat) updateNear(ctx *policy.Context, near []int, i int) {
	fp := ctx.Chip.Floorplan
	row, col := fp.Position(i)
	rad := h.cfg.SpreadCap - 1
	for r := max(0, row-rad); r <= min(fp.Rows-1, row+rad); r++ {
		dr := abs(r - row)
		span := rad - dr
		for q := max(0, col-span); q <= min(fp.Cols-1, col+span); q++ {
			c := r*fp.Cols + q
			if d := dr + abs(q-col); d < near[c] {
				near[c] = d
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Map implements Algorithm 1 for a full remap (epoch boundary).
func (h *Hayat) Map(ctx *policy.Context, threads []*workload.Thread) (policy.Result, error) {
	return h.place(ctx, nil, threads)
}

// MapIncremental places newly arrived threads into an existing assignment
// without disturbing running ones — the paper's mid-epoch case ("a new
// application starts within an aging epoch, typically in intervals of
// several minutes after the previous decision"), whose cost Section VI
// quotes as ≈1.6 ms worst case. The existing assignment is cloned, not
// mutated.
//
//lint:ignore reachability backs EXPERIMENTS.md's E10 arrival decision through the root BenchmarkArrivalDecision; the core tests pin it
func (h *Hayat) MapIncremental(ctx *policy.Context, existing *mapping.Assignment, newThreads []*workload.Thread) (policy.Result, error) {
	return h.place(ctx, existing, newThreads)
}

// place is the shared Algorithm 1 engine; existing may be nil.
func (h *Hayat) place(ctx *policy.Context, existing *mapping.Assignment, threads []*workload.Thread) (policy.Result, error) {
	if err := ctx.Validate(); err != nil {
		return policy.Result{}, err
	}
	n := ctx.N()
	s := h.scratchFor(ctx, n)
	var asg *mapping.Assignment
	switch {
	case existing != nil:
		if existing.N() != n {
			return policy.Result{}, fmt.Errorf("hayat: existing assignment sized %d, chip has %d cores", existing.N(), n)
		}
		asg = existing.Clone()
	case ctx.ReuseAssignment != nil && ctx.ReuseAssignment.N() == n:
		// Recycle the caller's retired assignment: Clear keeps the map's
		// buckets, so re-assigning the same thread set allocates nothing.
		asg = ctx.ReuseAssignment
		asg.Clear()
	default:
		asg = mapping.New(n)
	}

	// Sort threads most-demanding first so scarce fast cores are
	// contended for before they are hidden behind slack ones.
	s.order.Threads = append(s.order.Threads[:0], threads...)
	sort.Stable(&s.order)
	order := s.order.Threads

	avgHealth := 0.0
	for i := range ctx.Health {
		avgHealth += ctx.Health[i].Factor
	}
	avgHealth /= float64(n)
	alpha, beta := h.weights(avgHealth)
	// No next-health read exceeds hBound, so weight(c, beta, hBound)
	// bounds a candidate's weight before its inversion runs.
	hBound := ctx.AgingTable.FactorBound()

	// Running state of the partial mapping, seeded from any pre-existing
	// assignment.
	pdyn, on, duty := s.pdyn, s.on, s.duty
	for i := 0; i < n; i++ {
		pdyn[i], on[i], duty[i] = 0, false, 0
		if th := asg.ThreadOn(i); th != nil {
			pdyn[i] = ctx.ThreadDynPower(th)
			on[i] = true
			duty[i] = ctx.DutyMode.Duty(th)
		}
	}
	base := ctx.Predictor.Predict(s.base, s.total, pdyn, on)
	s.base = base
	maxBase := thermpredict.Peak(base)
	near := s.near
	if h.cfg.SpreadWeight > 0 {
		h.seedNear(ctx, near, on)
	}

	// The per-core effective age and next health at the base temperature
	// feed only the tie-break's chip-average next health, so they are
	// refreshed on the first tie after the base field changed, not after
	// every assignment.
	yEq, baselineHNext := s.yEq, s.hNext
	cacheFresh := false
	refreshAgingCache := func() {
		for i := 0; i < n; i++ {
			// The inversion and the forward read share one (T, d) point.
			c := ctx.AgingTable.Curve(base[i], duty[i])
			yEq[i] = c.EffectiveAge(ctx.Health[i].Factor)
			baselineHNext[i] = c.At(yEq[i] + ctx.HorizonYears)
		}
	}

	var result policy.Result
	s.unmap = s.unmap[:0]
	tNext := s.tNext
	// The per-thread inputs of the closures live outside the loop so each
	// closure is built once per place call, not once per thread.
	var dynP, tDuty float64
	// weigh computes a candidate's exact weight. The candidate changes
	// both temperature and duty, so its next health needs a fresh
	// inversion at the new (T, d).
	weigh := func(c *candidate) {
		cc := ctx.AgingTable.Curve(c.tCand, tDuty)
		c.hNext = cc.At(cc.EffectiveAge(c.hNow) + ctx.HorizonYears)
		c.weight = h.weight(c, beta, c.hNext)
	}
	// tieHealth is estimateNextHealth's chip average for a tied candidate:
	// it re-evaluates only thermally affected cores; the rest keep their
	// baseline prediction. It also sets the candidate's peak temperature,
	// the next tie-break, from the same predicted field.
	tieHealth := func(c *candidate) float64 {
		if !cacheFresh {
			refreshAgingCache()
			cacheFresh = true
		}
		cand := c.core
		addPower := ctx.Predictor.CandidatePower(cand, dynP, base[cand])
		ctx.Predictor.DeltaPredict(tNext, base, cand, addPower)
		c.tMaxNext = thermpredict.Peak(tNext)
		hSum := 0.0
		for i := 0; i < n; i++ {
			dT := tNext[i] - base[i]
			if i == cand {
				hSum += c.hNext
				continue
			}
			if h.cfg.AffectedDeltaK > 0 && dT < h.cfg.AffectedDeltaK {
				hSum += baselineHNext[i]
				continue
			}
			hSum += h.lookupNext(ctx, tNext[i], duty[i], yEq[i])
		}
		return hSum / float64(n)
	}

	for ti, t := range order {
		if asg.NumAssigned() >= ctx.MaxOnCores {
			s.unmap = append(s.unmap, t)
			continue
		}
		reqF, feasible := ctx.RequiredFreq(t)
		if !feasible {
			s.unmap = append(s.unmap, t)
			continue
		}
		dynP = ctx.ThreadDynPower(t)
		tDuty = ctx.DutyMode.Duty(t)
		numAssigned := asg.NumAssigned()

		// Pass 1 — admission and the weight's table-free parts — appends
		// the candidates in ascending core order; pass 2 (pickCandidate)
		// adds the table inversions where they can still matter.
		cands := s.cands[:0]
		for cand := 0; cand < n; cand++ {
			if on[cand] || ctx.FMax[cand] < reqF {
				continue
			}
			// Eq. 4 admission: every core must stay below T_safe. Admit
			// proves it from the hottest base core and the candidate's
			// largest response where it can, and otherwise walks the
			// candidate's predicted field, stopping at the first core
			// above T_safe.
			addPower := ctx.Predictor.CandidatePower(cand, dynP, base[cand])
			tCand, ok := ctx.Predictor.Admit(base, maxBase, cand, addPower, ctx.TSafe)
			if !ok {
				continue
			}

			// Eq. 9's table-free parts plus the DCM-optimisation spread
			// term (see Config and weight).
			dfGHz := (ctx.FMax[cand] - reqF) / 1e9
			wFreq := h.cfg.WMax
			if dfGHz > 0 {
				wFreq = math.Min(h.cfg.WMax, alpha/dfGHz)
			}
			spread := 0.0
			if h.cfg.SpreadWeight > 0 {
				dist := near[cand]
				if numAssigned == 0 {
					// No anchor yet: seed the DCM at the coolest region.
					dist = h.cfg.SpreadCap
					if ctx.Temps[cand] > ctx.TSafe-2*(ctx.TSafe-ctx.Predictor.Ambient())/3 {
						dist = 0
					}
				}
				spread = h.cfg.SpreadWeight * float64(dist)
			}

			// Fill the next slot in place (cands has room for every
			// core); pickCandidate sets the fields after ub.
			cands = cands[:len(cands)+1]
			c := &cands[len(cands)-1]
			c.core, c.wFreq, c.spread, c.dfGHz = cand, wFreq, spread, dfGHz
			c.incumbent = ctx.PrevOn != nil && ctx.PrevOn[cand]
			c.hNow, c.tCand = ctx.Health[cand].Factor, tCand
			c.ub = h.weight(c, beta, hBound)
		}
		s.cands = cands
		if len(cands) == 0 {
			s.unmap = append(s.unmap, t)
			continue
		}
		k, err := pickCandidate(cands, weigh, tieHealth)
		if err != nil {
			return policy.Result{}, err
		}
		best := cands[k].core
		if err := asg.Assign(t, best); err != nil {
			return policy.Result{}, fmt.Errorf("hayat: %w", err)
		}
		pdyn[best] = dynP
		on[best] = true
		duty[best] = tDuty
		if h.cfg.SpreadWeight > 0 {
			h.updateNear(ctx, near, best)
		}
		// Full re-prediction re-synchronises the leakage correction; the
		// aging cache no longer matches the base temperatures. No later
		// thread reads the field once the budget is spent or this was
		// the last thread, so then it is not predicted.
		if ti+1 < len(order) && asg.NumAssigned() < ctx.MaxOnCores {
			base = ctx.Predictor.Predict(base, s.total, pdyn, on)
			maxBase = thermpredict.Peak(base)
		}
		cacheFresh = false
	}
	if len(s.unmap) > 0 {
		result.Unmapped = s.unmap
	}
	result.Assignment = asg
	return result, nil
}

// lookupNext reads the table's health after the context horizon for a
// core whose effective age at (T, d) is yEq. Unlike
// aging.State.PredictFactor it does not clamp the read at the core's
// current factor.
func (h *Hayat) lookupNext(ctx *policy.Context, T, d, yEq float64) float64 {
	return ctx.AgingTable.Lookup(T, d, yEq+ctx.HorizonYears)
}

var _ policy.Policy = (*Hayat)(nil)

// EstimateNextHealth is the overhead-benchmark entry point of Section VI:
// one health estimate for one core at predicted temperature T and duty d.
//
//lint:ignore reachability backs EXPERIMENTS.md's E10 through the root BenchmarkEstimateNextHealth; TestEstimateNextHealth pins it
func EstimateNextHealth(ctx *policy.Context, core int, T, d float64) float64 {
	return ctx.Health[core].PredictFactor(ctx.AgingTable, T, d, ctx.HorizonYears)
}
