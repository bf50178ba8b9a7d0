package thermal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/numeric"
)

// stepMatrix assembles the implicit-Euler step matrix C/Δt + G from the
// node-by-node network definition, independently of the modal operators.
func (nw network) stepMatrix(dt float64) *Triplets {
	step := NewTriplets(len(nw.capac))
	for _, e := range nw.tri.Entries() {
		step.Add(e.I, e.J, e.V)
	}
	for i, c := range nw.capac {
		step.Add(i, i, c/dt)
	}
	return step
}

// cholReference is the dense Cholesky solve of the assembled network
// (symmetric positive definite) in temperatures over ambient,
// θ = T − T_amb, where the ambient source term drops out: the steady
// state G·θ = P and the step (C/Δt + G)·θ⁺ = C/Δt·θ + P. (In absolute
// temperatures a direct solve's own rounding grows with T_amb·cond;
// DESIGN.md §18 gives the numbers.)
type cholReference struct {
	m          *Model
	dt         float64
	capac      []float64
	g, step    *numeric.Cholesky
	over, rhs  []float64
	nodes, die []float64 // over in absolute temperatures
}

func newCholReference(t *testing.T, m *Model, dt float64) *cholReference {
	t.Helper()
	nw := m.network()
	g, err := numeric.FactorCholesky(nw.tri.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	step, err := numeric.FactorCholesky(nw.stepMatrix(dt).ToDense())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]float64, m.NumNodes())
	return &cholReference{m: m, dt: dt, capac: nw.capac, g: g, step: step,
		over: make([]float64, m.NumNodes()), rhs: make([]float64, m.NumNodes()),
		nodes: nodes, die: nodes[:m.nCores]}
}

// steady sets the reference state to the steady state of power.
func (r *cholReference) steady(t *testing.T, power []float64) {
	clear(r.rhs)
	r.solve(t, r.g, power)
}

func (r *cholReference) stepOnce(t *testing.T, power []float64) {
	for i := range r.rhs {
		r.rhs[i] = r.capac[i] / r.dt * r.over[i]
	}
	r.solve(t, r.step, power)
}

func (r *cholReference) solve(t *testing.T, chol *numeric.Cholesky, power []float64) {
	t.Helper()
	for c, p := range power {
		r.rhs[r.m.node(layerDie, c)] += p
	}
	if !numeric.AllFinite(chol.Solve(r.over, r.rhs)) {
		t.Fatal("reference solve is not finite")
	}
	for i, v := range r.over {
		r.nodes[i] = v + r.m.cfg.Ambient
	}
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// The modal solve must agree with the Cholesky solve of the assembled
// network: the steady state, then 2000 implicit-Euler steps under random
// power started from it, die temperatures after every step and the full
// node state (State) along the way. Half-way the state makes a round trip
// through State and SetState.
func TestModalSolveMatchesCholesky(t *testing.T) {
	const (
		steps = 2000
		tol   = 1e-9 // K
		dt    = 0.02
	)
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {4, 6}, {8, 8}, {16, 16}} {
		t.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(t *testing.T) {
			fp := floorplan.New(shape[0], shape[1])
			m, err := New(fp, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			n := fp.N()
			rng := rand.New(rand.NewSource(int64(7 + n)))
			power := make([]float64, n)
			draw := func() {
				for i := range power {
					power[i] = 0.02 + 7*rng.Float64()
				}
			}
			draw()
			ref := newCholReference(t, m, dt)
			ref.steady(t, power)
			nodes := make([]float64, m.NumNodes())
			if _, err := m.SteadyStateChecked(power, nodes); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(nodes, ref.nodes); d > tol {
				t.Fatalf("steady state differs from Cholesky by %.3g K", d)
			}

			tr, err := m.NewTransient(dt)
			if err != nil {
				t.Fatal(err)
			}
			tr.SetState(ref.nodes)
			worst := 0.0
			die := make([]float64, n)
			for s := 0; s < steps; s++ {
				draw()
				ref.stepOnce(t, power)
				if err := tr.StepChecked(power); err != nil {
					t.Fatal(err)
				}
				worst = math.Max(worst, maxAbsDiff(tr.CoreTemps(die), ref.die))
				if s%500 == 499 {
					if d := maxAbsDiff(tr.State(), ref.nodes); d > tol {
						t.Fatalf("step %d: node state differs from Cholesky by %.3g K", s, d)
					}
				}
				if s == steps/2 {
					tr.SetState(append([]float64(nil), tr.State()...))
				}
			}
			if worst > tol {
				t.Fatalf("die temperatures differ from Cholesky by up to %.3g K over %d steps", worst, steps)
			}
			t.Logf("max |modal − Cholesky| over %d steps: %.2g K", steps, worst)
		})
	}
}

// A window's start (SetSteadyState) equals the model's steady state.
func TestSetSteadyStateMatchesModel(t *testing.T) {
	m, err := New(floorplan.New(4, 6), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, 24)
	for i := range power {
		power[i] = float64(i%5) + 0.5
	}
	nodes := make([]float64, m.NumNodes())
	mustSteady(t, m, power, nodes)
	tr, err := m.NewTransient(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetSteadyState(power); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(tr.State(), nodes); d > 1e-12 {
		t.Fatalf("SetSteadyState differs from SteadyStateChecked by %.3g K", d)
	}
	power[2] = math.NaN()
	if err := tr.SetSteadyState(power); !errors.Is(err, numeric.ErrNonFinite) {
		t.Fatalf("NaN power: err = %v, want ErrNonFinite", err)
	}
}

// A window's start and every step are allocation-free.
func TestTransientAllocFree(t *testing.T) {
	m := mustModel(t)
	tr, err := m.NewTransient(0.02)
	if err != nil {
		t.Fatal(err)
	}
	power := numeric.Fill(make([]float64, 64), 5)
	die := make([]float64, 64)
	avg := testing.AllocsPerRun(20, func() {
		if err := tr.SetSteadyState(power); err != nil {
			t.Fatal(err)
		}
		if err := tr.StepChecked(power); err != nil {
			t.Fatal(err)
		}
		tr.CoreTemps(die)
	})
	if avg > 0 {
		t.Fatalf("window start and step allocate %.1f times, want 0", avg)
	}
}
