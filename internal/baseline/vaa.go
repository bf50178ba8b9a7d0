// Package baseline implements VAA — the comparison partner of Section VI:
// the smart-hill-climbing contiguous mapping of Fattah et al. [28]
// ("Smart hill climbing for agile dynamic mapping in many-core systems",
// DAC 2013) extended, as the paper describes, to be variability- and
// aging-aware for maximum-throughput mapping: threads are only admitted to
// cores whose current (aged) maximum frequency satisfies their requirement,
// the mapping is refreshed with epoch knowledge, threads run at exactly
// their required frequency, and DTM/core-level frequency scaling and
// temperature-dependent leakage are handled identically to Hayat by the
// surrounding engine.
//
// The defining behavioural difference from Hayat is placement shape: VAA
// clusters threads contiguously around a seed region (minimising on-chip
// communication distance, the objective of [28]) and ignores the thermal
// and aging consequences of that clustering.
package baseline

import (
	"fmt"
	"sort"

	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/workload"
)

// Config parameterises the VAA mapper.
type Config struct {
	// SeedRadius is the Manhattan radius used to score seed regions (the
	// "square factor" of [28]).
	SeedRadius int
}

// DefaultConfig returns the standard VAA settings.
func DefaultConfig() Config { return Config{SeedRadius: 2} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SeedRadius < 1 {
		return fmt.Errorf("vaa: SeedRadius must be ≥1, got %d", c.SeedRadius)
	}
	return nil
}

// VAA is the baseline policy.
type VAA struct {
	cfg Config
}

// New builds a VAA policy. The config must validate.
func New(cfg Config) (*VAA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &VAA{cfg: cfg}, nil
}

// Name implements policy.Policy.
func (v *VAA) Name() string { return "VAA" }

// vaaScratch is Map's working memory, carried across epochs in
// policy.Context.Scratch so the steady-state decision allocates nothing
// (DESIGN.md §15). It never influences a decision: both buffers are
// refilled on every call.
type vaaScratch struct {
	order policy.DemandOrder
	unmap []*workload.Thread
}

// Map implements the contiguous maximum-throughput mapping.
func (v *VAA) Map(ctx *policy.Context, threads []*workload.Thread) (policy.Result, error) {
	if err := ctx.Validate(); err != nil {
		return policy.Result{}, err
	}
	n := ctx.N()
	fp := ctx.Chip.Floorplan
	s, ok := ctx.Scratch.(*vaaScratch)
	if !ok {
		s = &vaaScratch{}
		ctx.Scratch = s
	}
	var asg *mapping.Assignment
	if ctx.ReuseAssignment != nil && ctx.ReuseAssignment.N() == n {
		asg = ctx.ReuseAssignment
		asg.Clear()
	} else {
		asg = mapping.New(n)
	}

	// Most demanding threads first (maximum-throughput admission).
	s.order.Threads = append(s.order.Threads[:0], threads...)
	sort.Stable(&s.order)
	order := s.order.Threads

	// The demand the seed region must satisfy: the median requirement.
	var medianFreq float64
	if len(order) > 0 {
		medianFreq = order[len(order)/2].MinFreq()
	}

	// Seed selection (the hill-climbing start): the core with the densest
	// surrounding region of cores fast enough for the typical thread.
	seed := v.pickSeed(ctx, medianFreq)
	seedRow, seedCol := fp.Position(seed)

	s.unmap = s.unmap[:0]
	for _, t := range order {
		if asg.NumAssigned() >= ctx.MaxOnCores {
			s.unmap = append(s.unmap, t)
			continue
		}
		reqF, feasible := ctx.RequiredFreq(t)
		if !feasible {
			s.unmap = append(s.unmap, t)
			continue
		}
		// Closest free eligible core to the seed; ties by higher fmax
		// (maximum-throughput flavour). Cores are visited in index order,
		// row by row.
		best := -1
		bestDist := 1 << 30
		for r := 0; r < fp.Rows; r++ {
			dr := abs(r - seedRow)
			for q := 0; q < fp.Cols; q++ {
				c := r*fp.Cols + q
				if asg.ThreadOn(c) != nil || ctx.FMax[c] < reqF {
					continue
				}
				d := dr + abs(q-seedCol)
				if d < bestDist || (d == bestDist && (best < 0 || ctx.FMax[c] > ctx.FMax[best])) {
					best, bestDist = c, d
				}
			}
		}
		if best < 0 {
			s.unmap = append(s.unmap, t)
			continue
		}
		if err := asg.Assign(t, best); err != nil {
			return policy.Result{}, fmt.Errorf("vaa: %w", err)
		}
	}
	var result policy.Result
	if len(s.unmap) > 0 {
		result.Unmapped = s.unmap
	}
	result.Assignment = asg
	return result, nil
}

// pickSeed scores every core by how many cores within SeedRadius can run a
// thread requiring minFreq, and returns the best-scoring core (ties to the
// lower index, matching the deterministic first-node search of [28]). The
// count visits only the diamond of cores within SeedRadius, row by row.
func (v *VAA) pickSeed(ctx *policy.Context, minFreq float64) int {
	fp := ctx.Chip.Floorplan
	rad := v.cfg.SeedRadius
	best, bestScore := 0, -1
	for c := 0; c < ctx.N(); c++ {
		if ctx.FMax[c] < minFreq {
			continue
		}
		row, col := fp.Position(c)
		score := 0
		for r := max(0, row-rad); r <= min(fp.Rows-1, row+rad); r++ {
			span := rad - abs(r-row)
			for q := max(0, col-span); q <= min(fp.Cols-1, col+span); q++ {
				if ctx.FMax[r*fp.Cols+q] >= minFreq {
					score++
				}
			}
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var _ policy.Policy = (*VAA)(nil)
