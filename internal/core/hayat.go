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
	"github.com/kit-ces/hayat/internal/parallel"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/workload"
)

// Chunk grains for the parallel loops inside place (see internal/parallel
// for the determinism contract: boundaries depend only on (n, grain)).
const (
	// candGrain chunks the per-thread candidate evaluation; each
	// candidate costs O(n) predictor and aging-table work, so small
	// chunks still amortise dispatch.
	candGrain = 4
	// cacheGrain chunks the per-core aging-cache refresh; each entry is
	// a table bisection (~60 trilinear lookups).
	cacheGrain = 8
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

// candidate is one entry of the solution list S of Algorithm 1.
type candidate struct {
	core     int
	weight   float64
	hAvgNext float64
	tMaxNext float64
}

// demandSorter orders threads most-demanding first. It is a pre-allocated
// sort.Interface (kept in placeScratch) so the per-epoch sort allocates
// no closure; sort.Stable produces the same stable permutation
// sort.SliceStable did, so decisions are unchanged.
type demandSorter struct{ ts []*workload.Thread }

func (s *demandSorter) Len() int           { return len(s.ts) }
func (s *demandSorter) Swap(i, j int)      { s.ts[i], s.ts[j] = s.ts[j], s.ts[i] }
func (s *demandSorter) Less(i, j int) bool { return s.ts[i].MinFreq() > s.ts[j].MinFreq() }

// candSorter orders candidates by weight, tie-broken by chip-average next
// health, then by peak temperature — S.sort-by(weight) of Algorithm 1.
type candSorter struct{ cs []candidate }

func (s *candSorter) Len() int      { return len(s.cs) }
func (s *candSorter) Swap(i, j int) { s.cs[i], s.cs[j] = s.cs[j], s.cs[i] }
func (s *candSorter) Less(a, b int) bool {
	ca, cb := s.cs[a], s.cs[b]
	if ca.weight != cb.weight {
		return ca.weight > cb.weight
	}
	if ca.hAvgNext != cb.hAvgNext {
		return ca.hAvgNext > cb.hAvgNext
	}
	return ca.tMaxNext < cb.tMaxNext
}

// placeScratch is place's reusable working set, carried across epochs in
// policy.Context.Scratch so the steady-state mapping decision allocates
// nothing. It is keyed by (core count, worker count); any mismatch —
// first call, resized chip, changed Workers — rebuilds it. Scratch never
// influences a decision: every buffer is fully reinitialised per call.
type placeScratch struct {
	n, workers int
	pool       *parallel.Pool
	serial     bool

	order demandSorter
	cands candSorter
	pdyn  []float64
	duty  []float64
	yEq   []float64
	hNext []float64 // baseline per-core next health at the current base field
	base  []float64
	on    []bool
	taken []bool
	slots []candidate
	tNext [][]float64 // per-worker predicted-temperature scratch
	unmap []*workload.Thread
}

// scratchFor returns the context's placeScratch, rebuilding it when the
// shape (cores, workers) changed or the context carries none.
func (h *Hayat) scratchFor(ctx *policy.Context, n int) *placeScratch {
	pw := ctx.Workers
	if pw < 1 {
		pw = 1
	}
	if s, ok := ctx.Scratch.(*placeScratch); ok && s.n == n && s.workers == pw {
		return s
	}
	s := &placeScratch{
		n: n, workers: pw,
		pool:   parallel.New(pw),
		serial: pw == 1,
		pdyn:   make([]float64, n),
		duty:   make([]float64, n),
		yEq:    make([]float64, n),
		hNext:  make([]float64, n),
		on:     make([]bool, n),
		taken:  make([]bool, n),
		slots:  make([]candidate, n),
	}
	s.cands.cs = make([]candidate, 0, n)
	s.tNext = make([][]float64, s.pool.Workers())
	for i := range s.tNext {
		s.tNext[i] = make([]float64, n)
	}
	ctx.Scratch = s
	return s
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
	s.order.ts = append(s.order.ts[:0], threads...)
	sort.Stable(&s.order)
	order := s.order.ts

	avgHealth := 0.0
	for i := range ctx.Health {
		avgHealth += ctx.Health[i].Factor
	}
	avgHealth /= float64(n)
	alpha, beta := h.weights(avgHealth)

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
	base := ctx.Predictor.Predict(s.base, pdyn, on)
	s.base = base

	// Cache the per-core effective age at the base temperature once per
	// Map call; candidate evaluation then needs only forward lookups.
	// Entries are independent (disjoint index writes over an immutable
	// table), so the refresh chunks across the pool; the serial path runs
	// inline to keep the epoch kernel allocation-free.
	pool := s.pool
	yEq, baselineHNext := s.yEq, s.hNext
	refreshRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// The inversion and the forward read share one (T, d) point.
			c := ctx.AgingTable.Curve(base[i], duty[i])
			yEq[i] = c.EffectiveAge(ctx.Health[i].Factor)
			baselineHNext[i] = c.At(yEq[i] + ctx.HorizonYears)
		}
	}
	refreshAgingCache := func() {
		if s.serial {
			refreshRange(0, n)
			return
		}
		pool.For(n, cacheGrain, refreshRange)
	}
	refreshAgingCache()

	var result policy.Result
	s.unmap = s.unmap[:0]
	// Candidate evaluation is pure given the partial-mapping state (base,
	// on, duty, aging cache), so candidates chunk across the pool: each
	// evaluation writes only its own slot, workers reuse per-slot tNext
	// scratch, and the slots are compacted in ascending core order — the
	// exact order the serial loop appends in, so the stable sort below
	// sees an identical input sequence for any worker count.
	slots, taken := s.slots, s.taken

	// The per-thread inputs of the evaluation closure live outside the
	// loop so the closure is built (and heap-allocated) once per place
	// call, not once per thread.
	var reqF, dynP, tDuty float64
	var numAssigned int
	evalRange := func(slot, lo, hi int) {
		tNext := s.tNext[slot]
		for cand := lo; cand < hi; cand++ {
			if on[cand] || ctx.FMax[cand] < reqF {
				continue
			}
			addPower := ctx.Predictor.CandidatePower(cand, dynP, base[cand])
			ctx.Predictor.DeltaPredict(tNext, base, cand, addPower)

			// Eq. 4 admission: every core must stay below T_safe.
			// Temperatures are absolute Kelvin (always positive), so the
			// zero seed cannot win the max — but seed from the first
			// element anyway; zero-sentinel reductions are exactly the
			// bug class PR10 fixed in reduceTiles.
			tMax := tNext[0]
			violates := false
			for i := 0; i < n; i++ {
				if tNext[i] > tMax {
					tMax = tNext[i]
				}
				if tNext[i] > ctx.TSafe {
					violates = true
					break
				}
			}
			if violates {
				continue
			}

			// The candidate changes both temperature and duty, so its
			// next health needs a fresh inversion at the new (T, d).
			cc := ctx.AgingTable.Curve(tNext[cand], tDuty)
			hCandNow := ctx.Health[cand].Factor
			hCandNext := cc.At(cc.EffectiveAge(hCandNow) + ctx.HorizonYears)

			// estimateNextHealth: re-evaluate only thermally affected
			// cores; the rest keep their baseline prediction.
			hSum := 0.0
			for i := 0; i < n; i++ {
				dT := tNext[i] - base[i]
				if i == cand {
					hSum += hCandNext
					continue
				}
				if h.cfg.AffectedDeltaK > 0 && dT < h.cfg.AffectedDeltaK {
					hSum += baselineHNext[i]
					continue
				}
				hSum += h.lookupNext(ctx, tNext[i], duty[i], yEq[i])
			}
			hAvgNext := hSum / float64(n)

			// Eq. 9 plus the DCM-optimisation spread term (see Config).
			dfGHz := (ctx.FMax[cand] - reqF) / 1e9
			wFreq := h.cfg.WMax
			if dfGHz > 0 {
				wFreq = math.Min(h.cfg.WMax, alpha/dfGHz)
			}
			spread := 0.0
			if h.cfg.SpreadWeight > 0 {
				dist := h.cfg.SpreadCap
				if numAssigned == 0 {
					// No anchor yet: seed the DCM at the coolest region.
					dist = h.cfg.SpreadCap
					if ctx.Temps[cand] > ctx.TSafe-2*(ctx.TSafe-ctx.Predictor.Ambient())/3 {
						dist = 0
					}
				} else {
					for i := 0; i < n; i++ {
						if !on[i] {
							continue
						}
						if d := ctx.Chip.Floorplan.ManhattanDistance(cand, i); d < dist {
							dist = d
						}
					}
				}
				spread = h.cfg.SpreadWeight * float64(dist)
			}
			w := wFreq + beta*hCandNext/hCandNow + spread - h.cfg.WastePenaltyPerGHz*dfGHz
			if ctx.PrevOn != nil && ctx.PrevOn[cand] {
				w += h.cfg.IncumbentWeight
			}

			slots[cand] = candidate{core: cand, weight: w, hAvgNext: hAvgNext, tMaxNext: tMax}
			taken[cand] = true
		}
	}

	for _, t := range order {
		if asg.NumAssigned() >= ctx.MaxOnCores {
			s.unmap = append(s.unmap, t)
			continue
		}
		var feasible bool
		reqF, feasible = ctx.RequiredFreq(t)
		if !feasible {
			s.unmap = append(s.unmap, t)
			continue
		}
		dynP = ctx.ThreadDynPower(t)
		tDuty = ctx.DutyMode.Duty(t)
		numAssigned = asg.NumAssigned()

		for i := range taken {
			taken[i] = false
		}
		if s.serial {
			evalRange(0, 0, n)
		} else {
			pool.ForWorker(n, candGrain, evalRange)
		}
		cands := s.cands.cs[:0]
		for cand := 0; cand < n; cand++ {
			if taken[cand] {
				cands = append(cands, slots[cand])
			}
		}
		s.cands.cs = cands
		if len(cands) == 0 {
			s.unmap = append(s.unmap, t)
			continue
		}
		// S.sort-by(weight), tie-broken by chip-average next health, then
		// by peak temperature (candSorter).
		sort.Stable(&s.cands)
		best := s.cands.cs[0].core
		if err := asg.Assign(t, best); err != nil {
			return policy.Result{}, fmt.Errorf("hayat: %w", err)
		}
		pdyn[best] = dynP
		on[best] = true
		duty[best] = tDuty
		// Full re-prediction re-synchronises the leakage correction, then
		// the aging cache follows the new base temperatures.
		base = ctx.Predictor.Predict(base, pdyn, on)
		refreshAgingCache()
	}
	if len(s.unmap) > 0 {
		result.Unmapped = s.unmap
	}
	result.Assignment = asg
	return result, nil
}

// lookupNext reads the predicted health after the context horizon for a
// core whose effective age at (T, d) is yEq, clamping at the current
// factor (aging cannot improve health).
func (h *Hayat) lookupNext(ctx *policy.Context, T, d, yEq float64) float64 {
	return ctx.AgingTable.Lookup(T, d, yEq+ctx.HorizonYears)
}

var _ policy.Policy = (*Hayat)(nil)

// EstimateNextHealth is the overhead-benchmark entry point of Section VI:
// one health estimate for one core at predicted temperature T and duty d.
func EstimateNextHealth(ctx *policy.Context, core int, T, d float64) float64 {
	return ctx.Health[core].PredictFactor(ctx.AgingTable, T, d, ctx.HorizonYears)
}
