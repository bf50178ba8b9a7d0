package baseline

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/kit-ces/hayat/internal/dvfs"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/mapping"
	"github.com/kit-ces/hayat/internal/policy"
	"github.com/kit-ces/hayat/internal/testutil"
	"github.com/kit-ces/hayat/internal/variation"
	"github.com/kit-ces/hayat/internal/workload"
)

// refMap and refPickSeed are VAA.Map and VAA.pickSeed as they were
// before the seed score counted only the SeedRadius diamond and the
// closest-core scan read the seed's position once, verbatim but for
// their names. Do not edit them to follow later changes: the live
// mapping must match them exactly.
func (v *VAA) refMap(ctx *policy.Context, threads []*workload.Thread) (policy.Result, error) {
	if err := ctx.Validate(); err != nil {
		return policy.Result{}, err
	}
	n := ctx.N()
	fp := ctx.Chip.Floorplan
	asg := mapping.New(n)

	// Most demanding threads first (maximum-throughput admission).
	order := append([]*workload.Thread(nil), threads...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].MinFreq() > order[j].MinFreq() })

	// The demand the seed region must satisfy: the median requirement.
	var medianFreq float64
	if len(order) > 0 {
		medianFreq = order[len(order)/2].MinFreq()
	}

	// Seed selection (the hill-climbing start): the core with the densest
	// surrounding region of cores fast enough for the typical thread.
	seed := v.refPickSeed(ctx, medianFreq)

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
		// Closest free eligible core to the seed; ties by higher fmax
		// (maximum-throughput flavour).
		best := -1
		bestDist := 1 << 30
		for c := 0; c < n; c++ {
			if asg.ThreadOn(c) != nil || ctx.FMax[c] < reqF {
				continue
			}
			d := fp.ManhattanDistance(seed, c)
			if d < bestDist || (d == bestDist && (best < 0 || ctx.FMax[c] > ctx.FMax[best])) {
				best, bestDist = c, d
			}
		}
		if best < 0 {
			result.Unmapped = append(result.Unmapped, t)
			continue
		}
		if err := asg.Assign(t, best); err != nil {
			return policy.Result{}, fmt.Errorf("vaa: %w", err)
		}
	}
	result.Assignment = asg
	return result, nil
}

func (v *VAA) refPickSeed(ctx *policy.Context, minFreq float64) int {
	fp := ctx.Chip.Floorplan
	n := ctx.N()
	best, bestScore := 0, -1
	for c := 0; c < n; c++ {
		if ctx.FMax[c] < minFreq {
			continue
		}
		score := 0
		for o := 0; o < n; o++ {
			if fp.ManhattanDistance(c, o) <= v.cfg.SeedRadius && ctx.FMax[o] >= minFreq {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// TestMapMatchesReference compares Map with refMap, and pickSeed with
// refPickSeed, on random contexts: grids from 1×1 to 9×12 in both
// orientations, seed radii from 1 past the grid's diameter, per-core
// frequencies drawn from a few levels (so seed scores and distances tie
// often), dark fractions, DVFS ladders, and thread mixes larger than the
// budget. Each context is mapped twice on one reused Scratch and
// ReuseAssignment, as the engine maps consecutive epochs, and the
// results must hold the same thread on every core and the same unmapped
// threads in order.
func TestMapMatchesReference(t *testing.T) {
	fx := testutil.NewFixture(t, 1)
	rng := rand.New(rand.NewSource(35))
	shapes := [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 3}, {3, 7}, {7, 3}, {4, 4}, {8, 8}, {9, 12}, {12, 9}}
	var scratch any
	var reuse *mapping.Assignment
	seeds := map[int]bool{}
	for trial := 0; trial < 400; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		fp := floorplan.New(shape[0], shape[1])
		n := fp.N()
		levels := []float64{2.0e9, 2.5e9, 3.0e9, 3.5e9}[:1+rng.Intn(4)]
		fmax := make([]float64, n)
		for i := range fmax {
			fmax[i] = levels[rng.Intn(len(levels))]
			if rng.Intn(3) == 0 {
				fmax[i] *= 1 + 0.01*rng.Float64()
			}
		}
		ctx := fx.Context(0.5)
		ctx.Chip = &variation.Chip{Floorplan: fp, FMax0: fmax}
		ctx.FMax = fmax
		ctx.Health, ctx.Temps = ctx.Health[:0], ctx.Temps[:0]
		for i := 0; i < n; i++ {
			ctx.Health = append(ctx.Health, fx.Context(0).Health[0])
			ctx.Temps = append(ctx.Temps, 320)
		}
		ctx.MaxOnCores = floorplan.MaxOnCores(n, []float64{0, 0.25, 0.5, 0.75}[rng.Intn(4)])
		if rng.Intn(4) == 0 {
			ladder, err := dvfs.Uniform(1.0e9, 3.2e9, 5)
			if err != nil {
				t.Fatal(err)
			}
			ctx.FreqLevels = ladder
		}
		cfg := Config{SeedRadius: 1 + rng.Intn(shape[0]+shape[1]+1)}
		v, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		threads := testutil.Threads(t, int64(trial), max(16, n/2+rng.Intn(n+1)), 1+rng.Intn(3))
		desc := fmt.Sprintf("trial %d: %d×%d radius %d", trial, shape[0], shape[1], cfg.SeedRadius)
		for _, minFreq := range append(levels, 0, 5e9) {
			got, want := v.pickSeed(ctx, minFreq), v.refPickSeed(ctx, minFreq)
			if got != want {
				t.Fatalf("%s: pickSeed(%v) = %d, reference %d", desc, minFreq, got, want)
			}
			seeds[got] = true
		}
		want, err := v.refMap(ctx, threads)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			ctx.Scratch, ctx.ReuseAssignment = scratch, reuse
			got, err := v.Map(ctx, threads)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameResult(got, want); d != "" {
				t.Fatalf("%s pass %d: %s", desc, pass, d)
			}
			scratch, reuse = ctx.Scratch, got.Assignment
		}
	}
	if len(seeds) < 10 {
		t.Fatalf("the seeds picked cover only %d cores; the contexts do not exercise the search", len(seeds))
	}
}

// sameResult reports how two policy results differ, or "" if they hold
// the same thread on every core and the same unmapped threads in order.
func sameResult(got, want policy.Result) string {
	if got.Assignment.N() != want.Assignment.N() {
		return fmt.Sprintf("assignment sized %d, reference %d", got.Assignment.N(), want.Assignment.N())
	}
	for i := 0; i < want.Assignment.N(); i++ {
		if g, w := got.Assignment.ThreadOn(i), want.Assignment.ThreadOn(i); g != w {
			return fmt.Sprintf("core %d holds %p, reference %p", i, g, w)
		}
	}
	if len(got.Unmapped) != len(want.Unmapped) {
		return fmt.Sprintf("%d unmapped, reference %d", len(got.Unmapped), len(want.Unmapped))
	}
	for i := range want.Unmapped {
		if got.Unmapped[i] != want.Unmapped[i] {
			return fmt.Sprintf("unmapped[%d] differs", i)
		}
	}
	return ""
}
