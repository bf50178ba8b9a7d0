package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/numeric"
)

// The grid conductance matrix must be sparse enough to justify the CSR
// path: ≥95 % structural zeros already at the default 8×8/SubDiv=2.
func TestGridMatrixSparsity(t *testing.T) {
	g := mustGrid(t, floorplan.Default(), 2, nil)
	nnz := len(g.tri.Entries())
	total := g.NumNodes() * g.NumNodes()
	if frac := 1 - float64(nnz)/float64(total); frac < 0.95 {
		t.Fatalf("grid matrix only %.1f%% zero (%d non-zeros of %d)", 100*frac, nnz, total)
	}
}

// CG must agree with a direct (Cholesky) solve of the assembled network
// — per-core averages AND maxima — across repeated solves, which
// exercise the warm start.
func TestGridMatchesDirectSolve(t *testing.T) {
	fp := floorplan.Default()
	grid := mustGrid(t, fp, 2, nil)
	ref := mustGrid(t, fp, 2, nil) // assembles the RHS and reduces the direct solution
	chol, err := numeric.FactorCholesky(ref.tri.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	direct := make([]float64, ref.NumNodes())
	rng := rand.New(rand.NewSource(17))
	power := make([]float64, fp.N())
	for round := 0; round < 5; round++ {
		for i := range power {
			power[i] = 9 * rng.Float64()
		}
		chol.Solve(direct, ref.assembleRHS(power))
		wantAvg, wantMax := ref.reduceTiles(direct, nil)
		gotAvg, gotMax := grid.SteadyState(power, nil)
		for i := range wantAvg {
			if math.Abs(gotAvg[i]-wantAvg[i]) > 1e-9 || math.Abs(gotMax[i]-wantMax[i]) > 1e-9 {
				t.Fatalf("round %d core %d: CG %v/%v vs direct %v/%v",
					round, i, gotAvg[i], gotMax[i], wantAvg[i], wantMax[i])
			}
		}
	}
}

// A solve after InvalidateWarmStart must be independent of call history:
// bit-identical to the first solve of a freshly constructed model.
func TestGridInvalidateWarmStart(t *testing.T) {
	fp := floorplan.Default()
	used := mustGrid(t, fp, 2, nil)
	fresh := mustGrid(t, fp, 2, nil)
	rng := rand.New(rand.NewSource(19))
	power := make([]float64, fp.N())
	for i := range power {
		power[i] = 6 * rng.Float64()
	}
	other := make([]float64, fp.N())
	for i := range other {
		other[i] = 12 * rng.Float64()
	}
	used.SteadyState(other, nil) // pollute the warm start
	used.InvalidateWarmStart()
	gotAvg, gotMax := used.SteadyState(power, nil)
	wantAvg, wantMax := fresh.SteadyState(power, nil)
	for i := range wantAvg {
		if gotAvg[i] != wantAvg[i] || gotMax[i] != wantMax[i] {
			t.Fatalf("core %d: post-invalidate solve %v/%v differs from fresh-model solve %v/%v",
				i, gotAvg[i], gotMax[i], wantAvg[i], wantMax[i])
		}
	}
}

// Regression for the PR10 zero-sentinel bug: reduceTiles seeded its max
// fold with 0.0, so an entirely negative tile field (delta-from-ambient
// conventions, sub-zero-Celsius solves) reported coreMax = 0 instead of
// the true maximum.
func TestGridReduceTilesNegativeField(t *testing.T) {
	g := mustGrid(t, floorplan.Default(), 2, nil)
	sol := make([]float64, g.NumNodes())
	for i := range sol {
		sol[i] = -40 - float64(i%7) // all negative, varying per tile
	}
	tiles := make([]float64, g.NumTiles())
	avg, max := g.reduceTiles(sol, tiles)
	s2 := g.SubDiv() * g.SubDiv()
	for c := range max {
		wantMax := math.Inf(-1)
		sum := 0.0
		for t2 := 0; t2 < s2; t2++ {
			v := sol[c*s2+t2]
			sum += v
			if v > wantMax {
				wantMax = v
			}
		}
		if max[c] != wantMax {
			t.Fatalf("core %d: coreMax %v, want %v (zero-sentinel regression)", c, max[c], wantMax)
		}
		if math.Abs(avg[c]-sum/float64(s2)) > 1e-12 {
			t.Fatalf("core %d: coreAvg %v, want %v", c, avg[c], sum/float64(s2))
		}
		if tiles[c*s2] != sol[c*s2] {
			t.Fatalf("tile copy-out mismatch at core %d", c)
		}
	}
}

// Steady-state solves must be allocation-free after construction: RHS,
// solution and reductions all live in the model's scratch arenas, and
// the CG solver keeps its own. The subtest is named for the sparse CG
// solve, the grid's one solver.
func TestGridSteadyStateAllocFree(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		g := mustGrid(t, floorplan.Default(), 2, nil)
		power := make([]float64, 64)
		for i := range power {
			power[i] = 5
		}
		tiles := make([]float64, g.NumTiles())
		g.SteadyState(power, tiles) // warm
		if avg := testing.AllocsPerRun(20, func() { g.SteadyState(power, tiles) }); avg > 0 {
			t.Fatalf("SteadyState allocates %.1f times per solve, want 0", avg)
		}
	})
}

// The block model's pooled steady-state path must likewise be
// allocation-free when the caller supplies the node buffer.
func TestModelSteadyStateAllocFree(t *testing.T) {
	m, err := New(floorplan.Default(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, 64)
	for i := range power {
		power[i] = 5
	}
	nodes := make([]float64, m.NumNodes())
	m.SteadyState(power, nodes) // warm the pool
	if avg := testing.AllocsPerRun(20, func() { m.SteadyState(power, nodes) }); avg > 0 {
		t.Fatalf("Model.SteadyState allocates %.1f times per solve with a node buffer, want 0", avg)
	}
}

// BenchmarkGridSteadyState measures repeated steady-state solves against
// the same model, so the CG warm start is part of the measured contract.
func BenchmarkGridSteadyState(b *testing.B) {
	for _, size := range []int{8, 16} {
		b.Run(fmt.Sprintf("grid=%dx%d", size, size), func(b *testing.B) {
			fp := floorplan.New(size, size)
			g := mustGrid(b, fp, 2, nil)
			power := make([]float64, fp.N())
			rng := rand.New(rand.NewSource(23))
			for i := range power {
				power[i] = 4 + 4*rng.Float64()
			}
			g.SteadyState(power, nil) // warm scratch + CG start
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.SteadyState(power, nil)
			}
		})
	}
}
