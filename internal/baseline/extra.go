package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/workload"
)

// This file adds two reference policies beyond the paper's VAA baseline.
// Neither appears in the paper; they bracket the policy space in
// experiments and ablations:
//
//   - Random: a frequency-feasible but otherwise arbitrary mapper — the
//     lower bound any run-time manager must beat.
//   - CoolestFirst: classic temperature-aware mapping (always pick the
//     coldest eligible core) with no aging awareness — it shows that
//     temperature-only management balances heat but squanders fast cores
//     and rotates stress, the gap Hayat's health/variation terms close.

// Random maps each thread to a uniformly random eligible core
// (deterministic in Seed).
type Random struct {
	Seed int64
}

// NewRandom builds the random mapper.
//
//lint:ignore reachability backs EXPERIMENTS.md's policy ladder through the root BenchmarkAblationPolicyLadder
func NewRandom(seed int64) *Random { return &Random{Seed: seed} }

// Name implements policy.Policy.
func (r *Random) Name() string { return "Random" }

// Map implements policy.Policy.
func (r *Random) Map(ctx *policy.Context, threads []*workload.Thread) (policy.Result, error) {
	if err := ctx.Validate(); err != nil {
		return policy.Result{}, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	n := ctx.N()
	asg := mapping.New(n)
	var result policy.Result
	for _, t := range threads {
		if asg.NumAssigned() >= ctx.MaxOnCores {
			result.Unmapped = append(result.Unmapped, t)
			continue
		}
		reqF, feasible := ctx.RequiredFreq(t)
		if !feasible {
			result.Unmapped = append(result.Unmapped, t)
			continue
		}
		var eligible []int
		for c := 0; c < n; c++ {
			if asg.ThreadOn(c) == nil && ctx.FMax[c] >= reqF {
				eligible = append(eligible, c)
			}
		}
		if len(eligible) == 0 {
			result.Unmapped = append(result.Unmapped, t)
			continue
		}
		pick := eligible[rng.Intn(len(eligible))]
		if err := asg.Assign(t, pick); err != nil {
			return policy.Result{}, fmt.Errorf("random: %w", err)
		}
	}
	result.Assignment = asg
	return result, nil
}

// CoolestFirst maps the most demanding threads first, each to the coldest
// eligible core by the context's last measured temperatures.
type CoolestFirst struct{}

// NewCoolestFirst builds the temperature-only mapper.
//
//lint:ignore reachability backs EXPERIMENTS.md's policy ladder through the root BenchmarkAblationPolicyLadder
func NewCoolestFirst() *CoolestFirst { return &CoolestFirst{} }

// Name implements policy.Policy.
func (c *CoolestFirst) Name() string { return "CoolestFirst" }

// Map implements policy.Policy.
func (c *CoolestFirst) Map(ctx *policy.Context, threads []*workload.Thread) (policy.Result, error) {
	if err := ctx.Validate(); err != nil {
		return policy.Result{}, err
	}
	n := ctx.N()
	asg := mapping.New(n)
	order := append([]*workload.Thread(nil), threads...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].MinFreq() > order[j].MinFreq() })
	var result policy.Result
	for _, t := range order {
		if asg.NumAssigned() >= ctx.MaxOnCores {
			result.Unmapped = append(result.Unmapped, t)
			continue
		}
		reqF, feasible := ctx.RequiredFreq(t)
		if !feasible {
			result.Unmapped = append(result.Unmapped, t)
			continue
		}
		best := -1
		for cand := 0; cand < n; cand++ {
			if asg.ThreadOn(cand) != nil || ctx.FMax[cand] < reqF {
				continue
			}
			if best < 0 || ctx.Temps[cand] < ctx.Temps[best] {
				best = cand
			}
		}
		if best < 0 {
			result.Unmapped = append(result.Unmapped, t)
			continue
		}
		if err := asg.Assign(t, best); err != nil {
			return policy.Result{}, fmt.Errorf("coolest: %w", err)
		}
	}
	result.Assignment = asg
	return result, nil
}

var (
	_ policy.Policy = (*Random)(nil)
	_ policy.Policy = (*CoolestFirst)(nil)
)
