package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/numeric"
)

func mustGrid(t testing.TB, fp *floorplan.Floorplan, subdiv int, density []float64) *GridModel {
	t.Helper()
	g, err := NewGrid(fp, DefaultConfig(), subdiv, density)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	fp := floorplan.Default()
	if _, err := NewGrid(fp, DefaultConfig(), 0, nil); err == nil {
		t.Error("subdiv 0 accepted")
	}
	bad := DefaultConfig()
	bad.Ambient = 0
	if _, err := NewGrid(fp, bad, 2, nil); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewGrid(fp, DefaultConfig(), 2, []float64{1}); err == nil {
		t.Error("wrong density length accepted")
	}
	if _, err := NewGrid(fp, DefaultConfig(), 2, []float64{1, -1, 1, 1}); err == nil {
		t.Error("negative density accepted")
	}
	if _, err := NewGrid(fp, DefaultConfig(), 2, []float64{0, 0, 0, 0}); err == nil {
		t.Error("zero-sum density accepted")
	}
}

// SubDiv == 1 must reproduce the block model exactly: same network, same
// temperatures. Every power vector is solved cold, so each solve runs CG
// from zero to its tolerance.
func TestGridSubdiv1MatchesBlockModel(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {4, 4}, {8, 8}, {16, 16}} {
		t.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(t *testing.T) {
			fp := floorplan.New(shape[0], shape[1])
			block, err := New(fp, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			grid := mustGrid(t, fp, 1, nil)
			rng := rand.New(rand.NewSource(int64(3 + fp.N())))
			power := make([]float64, fp.N())
			for round := 0; round < 4; round++ {
				for i := range power {
					power[i] = 8 * rng.Float64()
				}
				want := mustSteady(t, block, power, nil)
				grid.InvalidateWarmStart()
				avg, max := grid.SteadyState(power, nil)
				for i := range want {
					if math.Abs(avg[i]-want[i]) > 1e-9 || math.Abs(max[i]-want[i]) > 1e-9 {
						t.Fatalf("round %d core %d: grid %v/%v vs block %v", round, i, avg[i], max[i], want[i])
					}
				}
			}
		})
	}
}

// The block model should agree with the sub-core grid's core averages to
// within a couple of Kelvin — the validation that justifies using the
// block model in the engine.
func TestGridSubdiv2CloseToBlockModel(t *testing.T) {
	fp := floorplan.Default()
	block, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid := mustGrid(t, floorplan.Default(), 2, nil)
	power := make([]float64, 64)
	for i := 0; i < 32; i++ {
		power[i] = 6
	}
	want := mustSteady(t, block, power, nil)
	avg, max := grid.SteadyState(power, nil)
	for i := range want {
		if math.Abs(avg[i]-want[i]) > 2.0 {
			t.Fatalf("core %d: grid avg %v vs block %v", i, avg[i], want[i])
		}
		if max[i] < avg[i]-1e-9 {
			t.Fatalf("core %d: max %v below avg %v", i, max[i], avg[i])
		}
	}
}

func TestGridEnergyConservation(t *testing.T) {
	grid := mustGrid(t, floorplan.Default(), 2, nil)
	rng := rand.New(rand.NewSource(5))
	power := make([]float64, 64)
	total := 0.0
	for i := range power {
		power[i] = 7 * rng.Float64()
		total += power[i]
	}
	nodes := grid.SteadyStateNodes(power)
	out := grid.HeatOutflow(nodes)
	if math.Abs(out-total)/total > 1e-9 {
		t.Fatalf("heat out %v != in %v", out, total)
	}
}

// A skewed density profile must create an intra-core hot spot: the loaded
// tile runs hotter than the core average.
func TestGridDensityProfileCreatesHotspot(t *testing.T) {
	// All power in tile 0 (top-left quadrant of each core).
	grid := mustGrid(t, floorplan.Default(), 2, []float64{1, 0, 0, 0})
	uniform := mustGrid(t, floorplan.Default(), 2, nil)
	power := numeric.Fill(make([]float64, 64), 6)
	_, skewMax := grid.SteadyState(power, nil)
	_, uniMax := uniform.SteadyState(power, nil)
	hotter := 0
	for i := range skewMax {
		if skewMax[i] > uniMax[i]+0.05 {
			hotter++
		}
	}
	if hotter < 48 {
		t.Fatalf("skewed density raised peak on only %d/64 cores", hotter)
	}
}

func TestGridTileCountAndAccessors(t *testing.T) {
	grid := mustGrid(t, floorplan.Default(), 3, nil)
	if grid.SubDiv() != 3 {
		t.Fatalf("SubDiv = %d", grid.SubDiv())
	}
	if grid.NumTiles() != 64*9 {
		t.Fatalf("NumTiles = %d", grid.NumTiles())
	}
	if grid.NumNodes() != 64*9+128 {
		t.Fatalf("NumNodes = %d", grid.NumNodes())
	}
	tiles := make([]float64, grid.NumTiles())
	avg, _ := grid.SteadyState(numeric.Fill(make([]float64, 64), 4), tiles)
	// Tile field must be consistent with per-core averages.
	for c := 0; c < 64; c++ {
		sum := 0.0
		for tt := 0; tt < 9; tt++ {
			sum += tiles[c*9+tt]
		}
		if math.Abs(sum/9-avg[c]) > 1e-9 {
			t.Fatalf("core %d tile average inconsistent", c)
		}
	}
}

func TestGridZeroPowerIsAmbient(t *testing.T) {
	grid := mustGrid(t, floorplan.Default(), 2, nil)
	avg, max := grid.SteadyState(make([]float64, 64), nil)
	for i := range avg {
		if math.Abs(avg[i]-DefaultConfig().Ambient) > 1e-9 || math.Abs(max[i]-DefaultConfig().Ambient) > 1e-9 {
			t.Fatalf("core %d not at ambient with zero power", i)
		}
	}
}
