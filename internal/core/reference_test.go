package core

// referencePlace is a verbatim copy of Hayat.place before the candidate
// loop computed chip-average next health only on exact weight ties and
// inverted only candidates whose weight bound can still win. Only the
// type and method names (and one comment) differ, so the copy can sit
// next to the live code; the equivalence tests and FuzzPickCandidate
// compare the live decisions against it. Since then it has lost only its
// worker pool: the loops it chunked run serially, computing the same
// values. Do not edit it to follow later changes — it is the reference
// the pruned loop must match bit for bit.

import (
	"fmt"
	"math"
	"sort"

	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/workload"
)

// refCandidate is one entry of the solution list S of Algorithm 1.
type refCandidate struct {
	core     int
	weight   float64
	hAvgNext float64
	tMaxNext float64
}

// refCandSorter orders candidates by weight, tie-broken by chip-average next
// health, then by peak temperature — S.sort-by(weight) of Algorithm 1.
type refCandSorter struct{ cs []refCandidate }

func (s *refCandSorter) Len() int      { return len(s.cs) }
func (s *refCandSorter) Swap(i, j int) { s.cs[i], s.cs[j] = s.cs[j], s.cs[i] }
func (s *refCandSorter) Less(a, b int) bool {
	ca, cb := s.cs[a], s.cs[b]
	if ca.weight != cb.weight {
		return ca.weight > cb.weight
	}
	if ca.hAvgNext != cb.hAvgNext {
		return ca.hAvgNext > cb.hAvgNext
	}
	return ca.tMaxNext < cb.tMaxNext
}

// refScratch is place's reusable working set, carried across epochs in
// policy.Context.Scratch so the steady-state mapping decision allocates
// nothing. It is keyed by core count; a mismatch — first call, resized
// chip — rebuilds it. Scratch never influences a decision: every buffer
// is fully reinitialised per call.
type refScratch struct {
	n int

	order demandSorter
	cands refCandSorter
	pdyn  []float64
	duty  []float64
	yEq   []float64
	hNext []float64 // baseline per-core next health at the current base field
	base  []float64
	on    []bool
	taken []bool
	slots []refCandidate
	tNext []float64 // predicted-temperature scratch
	unmap []*workload.Thread
}

// refScratchFor returns the context's refScratch, rebuilding it when the
// core count changed or the context carries none.
func (h *Hayat) refScratchFor(ctx *policy.Context, n int) *refScratch {
	if s, ok := ctx.Scratch.(*refScratch); ok && s.n == n {
		return s
	}
	s := &refScratch{
		n:     n,
		pdyn:  make([]float64, n),
		duty:  make([]float64, n),
		yEq:   make([]float64, n),
		hNext: make([]float64, n),
		on:    make([]bool, n),
		taken: make([]bool, n),
		slots: make([]refCandidate, n),
		tNext: make([]float64, n),
	}
	s.cands.cs = make([]refCandidate, 0, n)
	ctx.Scratch = s
	return s
}

// place is the shared Algorithm 1 engine; existing may be nil.
func (h *Hayat) referencePlace(ctx *policy.Context, existing *mapping.Assignment, threads []*workload.Thread) (policy.Result, error) {
	if err := ctx.Validate(); err != nil {
		return policy.Result{}, err
	}
	n := ctx.N()
	s := h.refScratchFor(ctx, n)
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
	base := ctx.Predictor.Predict(s.base, nil, pdyn, on)
	s.base = base

	// Cache the per-core effective age at the base temperature once per
	// Map call; candidate evaluation then needs only forward lookups.
	yEq, baselineHNext := s.yEq, s.hNext
	refreshAgingCache := func() {
		for i := 0; i < n; i++ {
			// The inversion and the forward read share one (T, d) point.
			c := ctx.AgingTable.Curve(base[i], duty[i])
			yEq[i] = c.EffectiveAge(ctx.Health[i].Factor)
			baselineHNext[i] = c.At(yEq[i] + ctx.HorizonYears)
		}
	}
	refreshAgingCache()

	var result policy.Result
	s.unmap = s.unmap[:0]
	// Each candidate evaluation writes only its own slot, and the slots
	// are compacted in ascending core order.
	slots, taken := s.slots, s.taken

	// The per-thread inputs of the evaluation closure live outside the
	// loop so the closure is built (and heap-allocated) once per place
	// call, not once per thread.
	var reqF, dynP, tDuty float64
	var numAssigned int
	evalRange := func(lo, hi int) {
		tNext := s.tNext
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
			// bug class once fixed in reduceTiles.
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

			slots[cand] = refCandidate{core: cand, weight: w, hAvgNext: hAvgNext, tMaxNext: tMax}
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
		evalRange(0, n)
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
		// by peak temperature (refCandSorter).
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
		base = ctx.Predictor.Predict(base, nil, pdyn, on)
		refreshAgingCache()
	}
	if len(s.unmap) > 0 {
		result.Unmapped = s.unmap
	}
	result.Assignment = asg
	return result, nil
}
