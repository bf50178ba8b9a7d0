package thermal

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/numeric"
)

func mustModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(floorplan.Default(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	fp := floorplan.Default()
	mut := []func(*Config){
		func(c *Config) { c.Die.Conductivity = 0 },
		func(c *Config) { c.Spreader.Thickness = -1 },
		func(c *Config) { c.Sink.VolumetricHeat = 0 },
		func(c *Config) { c.TIMThickness = 0 },
		func(c *Config) { c.ConvectionResistance = 0 },
		func(c *Config) { c.Ambient = 0 },
	}
	for i, f := range mut {
		cfg := DefaultConfig()
		f(&cfg)
		if _, err := New(fp, cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestZeroPowerIsAmbient(t *testing.T) {
	m := mustModel(t)
	temps := mustSteady(t, m, make([]float64, 64), nil)
	for i, T := range temps {
		if math.Abs(T-m.Ambient()) > 1e-9 {
			t.Fatalf("core %d at %v K with zero power, want ambient %v", i, T, m.Ambient())
		}
	}
}

func TestSteadyStateEnergyConservation(t *testing.T) {
	m := mustModel(t)
	power := make([]float64, 64)
	rng := rand.New(rand.NewSource(1))
	total := 0.0
	for i := range power {
		power[i] = 2 + 6*rng.Float64()
		total += power[i]
	}
	nodes := make([]float64, m.NumNodes())
	mustSteady(t, m, power, nodes)
	out := m.HeatOutflow(nodes)
	if math.Abs(out-total)/total > 1e-9 {
		t.Fatalf("heat out %v W != power in %v W", out, total)
	}
}

func TestUniformPowerSymmetry(t *testing.T) {
	fp := floorplan.Default()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	power := numeric.Fill(make([]float64, 64), 5)
	temps := mustSteady(t, m, power, nil)
	// 180° rotational symmetry of the layout → symmetric temperatures.
	for i := 0; i < 64; i++ {
		j := 63 - i
		if math.Abs(temps[i]-temps[j]) > 1e-6 {
			t.Fatalf("symmetry broken: T[%d]=%v vs T[%d]=%v", i, temps[i], j, temps[j])
		}
	}
	// Every core has the same stack and its own share of the convection,
	// and the chip edges are adiabatic, so uniform power sends no heat
	// sideways: each core sits at ambient plus its power times the series
	// resistance of its own stack, the centre exactly as hot as a corner.
	s := &m.stack
	want := m.Ambient() + 5*(1/s.gDieSpr+1/s.gSprSink+1/s.gSinkAmb)
	for i, T := range temps {
		if math.Abs(T-want) > 1e-9 {
			t.Fatalf("core %d at %v K under uniform power, want %v", i, T, want)
		}
	}
}

func TestPaperTemperatureBand(t *testing.T) {
	// 32-core contiguous cluster at ~5.2 W/core (paper's scale) must land
	// peak steady temperatures in Fig. 2's 325–345 K band.
	fp := floorplan.Default()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, 64)
	for i := range power {
		if i < 32 { // the first 32 cores in row-major order
			power[i] = 5.2
		} else {
			power[i] = 0.019
		}
	}
	temps := mustSteady(t, m, power, nil)
	min, max := numeric.MinMax(temps)
	if max < 325 || max > 348 {
		t.Fatalf("peak temp %v K outside Fig. 2 band [325, 348]", max)
	}
	if min <= m.Ambient() {
		t.Fatalf("min temp %v K at or below ambient", min)
	}
}

func TestDarkNeighbourCoolsHotCore(t *testing.T) {
	// A core surrounded by dark cores must run cooler than the same core
	// surrounded by active cores — the dark-silicon heat-dissipation
	// effect the paper exploits.
	fp := floorplan.Default()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot := fp.Index(3, 3)
	isolated := make([]float64, 64)
	isolated[hot] = 6
	tIso := mustSteady(t, m, isolated, nil)[hot]

	clustered := make([]float64, 64)
	clustered[hot] = 6
	for _, nb := range fp.Neighbors(nil, hot) {
		clustered[nb] = 6
	}
	tClu := mustSteady(t, m, clustered, nil)[hot]
	if tClu <= tIso+0.5 {
		t.Fatalf("clustered %v K not clearly hotter than isolated %v K", tClu, tIso)
	}
}

func TestSuperpositionLinearity(t *testing.T) {
	m := mustModel(t)
	rng := rand.New(rand.NewSource(9))
	p1 := make([]float64, 64)
	p2 := make([]float64, 64)
	sum := make([]float64, 64)
	for i := range p1 {
		p1[i] = 5 * rng.Float64()
		p2[i] = 5 * rng.Float64()
		sum[i] = p1[i] + p2[i]
	}
	t1 := mustSteady(t, m, p1, nil)
	t2 := mustSteady(t, m, p2, nil)
	ts := mustSteady(t, m, sum, nil)
	amb := m.Ambient()
	for i := range ts {
		lhs := ts[i] - amb
		rhs := (t1[i] - amb) + (t2[i] - amb)
		if math.Abs(lhs-rhs) > 1e-8 {
			t.Fatalf("superposition violated at core %d: %v vs %v", i, lhs, rhs)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := mustModel(t)
	power := make([]float64, 64)
	for i := range power {
		if i%3 == 0 {
			power[i] = 6
		}
	}
	want := mustSteady(t, m, power, nil)
	tr, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Sink time constants are tens of seconds; run long enough.
	for k := 0; k < 60000; k++ {
		mustStep(t, tr, power)
	}
	got := tr.CoreTemps(nil)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0.1 {
			t.Fatalf("core %d transient %v vs steady %v", i, got[i], want[i])
		}
	}
}

func TestTransientFromSteadyStateIsStationary(t *testing.T) {
	m := mustModel(t)
	power := numeric.Fill(make([]float64, 64), 4)
	nodes := make([]float64, m.NumNodes())
	mustSteady(t, m, power, nodes)
	tr, err := m.NewTransient(0.005)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetState(nodes)
	before := tr.CoreTemps(nil)
	for k := 0; k < 100; k++ {
		mustStep(t, tr, power)
	}
	after := tr.CoreTemps(nil)
	for i := range before {
		if math.Abs(after[i]-before[i]) > 1e-6 {
			t.Fatalf("steady state drifted at core %d: %v → %v", i, before[i], after[i])
		}
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	m := mustModel(t)
	power := numeric.Fill(make([]float64, 64), 5)
	tr, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	prev := tr.CoreTemps(nil)
	for k := 0; k < 200; k++ {
		mustStep(t, tr, power)
		cur := tr.CoreTemps(nil)
		for i := range cur {
			if cur[i] < prev[i]-1e-9 {
				t.Fatalf("step %d: core %d cooled during warm-up (%v → %v)", k, i, prev[i], cur[i])
			}
		}
		prev = cur
	}
}

func TestTransientRejectsBadDt(t *testing.T) {
	m := mustModel(t)
	if _, err := m.NewTransient(0); err == nil {
		t.Fatal("expected error for dt=0")
	}
	if _, err := m.NewTransient(-1); err == nil {
		t.Fatal("expected error for negative dt")
	}
}

func TestTransientStepSizeInsensitive(t *testing.T) {
	// Implicit Euler is first-order: halving dt should give nearly the
	// same trajectory at matched times once near equilibrium.
	m := mustModel(t)
	power := numeric.Fill(make([]float64, 64), 5)
	tr1, _ := m.NewTransient(0.02)
	tr2, _ := m.NewTransient(0.01)
	for k := 0; k < 500; k++ {
		mustStep(t, tr1, power)
	}
	for k := 0; k < 1000; k++ {
		mustStep(t, tr2, power)
	}
	a := tr1.CoreTemps(nil)
	b := tr2.CoreTemps(nil)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 0.25 {
			t.Fatalf("dt sensitivity too high at core %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: steady-state temperatures are monotone in power — adding power
// anywhere cannot cool any core.
func TestSteadyStateMonotoneProperty(t *testing.T) {
	m := mustModel(t)
	f := func(seed int64, coreRaw uint8, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, 64)
		for i := range p {
			p[i] = 8 * rng.Float64()
		}
		base := mustSteady(t, m, p, nil)
		baseCopy := append([]float64(nil), base...)
		core := int(coreRaw) % 64
		p[core] += 0.1 + float64(extraRaw)/50
		bumped := mustSteady(t, m, p, nil)
		for i := range bumped {
			if bumped[i] < baseCopy[i]-1e-9 {
				return false
			}
		}
		return bumped[core] > baseCopy[core]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Scalability: 16×16- and 20×20-core networks (768 and 1200 nodes) must
// satisfy energy conservation and agree with physics sanity checks.
func TestLargeFloorplan(t *testing.T) {
	for _, side := range []int{16, 20} {
		fp := floorplan.New(side, side)
		m, err := New(fp, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n := fp.N()
		power := make([]float64, n)
		total := 0.0
		for i := range power {
			if i%2 == 0 {
				power[i] = 5
				total += 5
			}
		}
		nodes := make([]float64, m.NumNodes())
		temps := mustSteady(t, m, power, nodes)
		out := m.HeatOutflow(nodes)
		if math.Abs(out-total)/total > 1e-6 {
			t.Fatalf("side %d: heat out %v != in %v", side, out, total)
		}
		min, _ := numeric.MinMax(temps)
		if min <= m.Ambient() {
			t.Fatalf("side %d: min temp %v at/below ambient", side, min)
		}
		// The transient started from the steady state stays there.
		tr, err := m.NewTransient(0.05)
		if err != nil {
			t.Fatal(err)
		}
		tr.SetState(nodes)
		before := tr.CoreTemps(nil)
		for k := 0; k < 20; k++ {
			mustStep(t, tr, power)
		}
		after := tr.CoreTemps(nil)
		for i := range before {
			if math.Abs(after[i]-before[i]) > 0.05 {
				t.Fatalf("side %d: steady state drifted at core %d (%v → %v)", side, i, before[i], after[i])
			}
		}
	}
}

// The steady state must satisfy the assembled network: the conductance
// matrix, built node by node independently of the modal solve, times
// the solution equals the injected right-hand side, on every grid shape
// and for uniform (mode 0 only) as well as random power.
func TestSteadyStateResidual(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {4, 6}, {8, 8}, {16, 16}, {20, 20}}
	rng := rand.New(rand.NewSource(5))
	for _, shape := range shapes {
		fp := floorplan.New(shape[0], shape[1])
		m, err := New(fp, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		uniform := numeric.Fill(make([]float64, fp.N()), 3)
		random := make([]float64, fp.N())
		for i := range random {
			random[i] = 8 * rng.Float64()
		}
		for _, power := range [][]float64{uniform, random} {
			nodes := make([]float64, m.NumNodes())
			mustSteady(t, m, power, nodes)
			// Residual check: G·T must equal the injected rhs.
			nw := m.network()
			got := make([]float64, m.NumNodes())
			nw.tri.ToCSR().MulVec(got, nodes)
			rhs := make([]float64, m.NumNodes())
			for i := range rhs {
				rhs[i] = nw.gAmb[i] * m.Ambient()
			}
			for c, p := range power {
				rhs[m.node(layerDie, c)] += p
			}
			for i := range got {
				if math.Abs(got[i]-rhs[i]) > 1e-5 {
					t.Fatalf("%d×%d: residual at node %d: %v vs %v", shape[0], shape[1], i, got[i], rhs[i])
				}
			}
		}
	}
}

// SteadyStateChecked is documented as safe for concurrent use; hammer it from
// many goroutines (run with -race).
func TestSteadyStateConcurrentUse(t *testing.T) {
	m := mustModel(t)
	want := mustSteady(t, m, numeric.Fill(make([]float64, 64), 5), nil)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			power := numeric.Fill(make([]float64, 64), 5)
			for k := 0; k < 30; k++ {
				got, err := m.SteadyStateChecked(power, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-9 {
						errs <- "concurrent solve diverged"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
