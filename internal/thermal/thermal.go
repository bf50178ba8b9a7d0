// Package thermal implements the compact thermal model that stands in for
// the HotSpot tool [20]: an RC network over the chip floorplan with three
// stacked layers per core — silicon die, heat spreader (including the TIM
// bond) and heat sink — plus convection from every sink node to ambient.
//
// Lateral conductances couple neighbouring cores inside each layer, which
// is what makes dark cores matter: a power-gated core is a low-power node
// whose silicon still conducts, so it acts as a heat escape path for its
// neighbours ("improved heat dissipation due to dark cores").
//
// The block model (Model) has one solver for every floorplan, an exact
// modal solve in the 2-D DCT-II basis of the core grid (DESIGN.md §18).
// Each transform between node and modal coordinates is two dense
// products, numeric.MulMat with a 1-D basis or its transpose, whose
// AVX2 kernel equals its Go kernel bit for bit (DESIGN.md §22). It serves
// two entry points, both checked against non-finite values:
//
//   - SteadyStateChecked: G·T = P + G_amb·T_amb, used to learn the die
//     response of the online predictor (DieResponse).
//   - Transient: unconditionally stable implicit-Euler stepping of
//     C·dT/dt = P − G·T (StepChecked), used for the fine-grained
//     intra-epoch simulation of Fig. 4; each window starts from its
//     steady state.
//
// The package's tests keep two independent definitions of the network to
// check the modal solves against: the block network assembled node by
// node, and GridModel, HotSpot's sub-core grid mode, solved by
// Jacobi-preconditioned conjugate gradients (EXPERIMENTS.md's "< 2 K"
// block-vs-grid check).
//
// The network is linear, so superposition holds exactly — the property the
// online thermal predictor (internal/thermpredict, [27]) exploits.
package thermal

import (
	"fmt"
	"math"
	"sync"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/numeric"
)

// Layer describes one conductive layer of the stack.
type Layer struct {
	// Conductivity is the thermal conductivity in W/(m·K).
	Conductivity float64
	// Thickness in metres.
	Thickness float64
	// VolumetricHeat is the volumetric heat capacity in J/(m³·K).
	VolumetricHeat float64
	// AreaScale widens the layer footprint per core relative to the core
	// area (spreaders and sinks overhang the die).
	AreaScale float64
}

// Config holds the physical parameters of the stack.
type Config struct {
	Die      Layer
	Spreader Layer
	Sink     Layer
	// TIMThickness and TIMConductivity describe the thermal-interface
	// material between die and spreader.
	TIMThickness, TIMConductivity float64
	// ConvectionResistance is the total sink-to-ambient resistance in K/W
	// for the whole chip (distributed uniformly over sink nodes).
	ConvectionResistance float64
	// Ambient is the ambient temperature in Kelvin.
	Ambient float64
}

// DefaultConfig returns a stack calibrated so the paper's ~165 W chip
// (32 active cores) reaches the 325–345 K steady-state band of Fig. 2 with
// 45 °C ambient.
func DefaultConfig() Config {
	return Config{
		Die:                  Layer{Conductivity: 100, Thickness: 0.35e-3, VolumetricHeat: 1.75e6, AreaScale: 1.0},
		Spreader:             Layer{Conductivity: 400, Thickness: 1.0e-3, VolumetricHeat: 3.4e6, AreaScale: 4.0},
		Sink:                 Layer{Conductivity: 240, Thickness: 6.0e-3, VolumetricHeat: 2.4e6, AreaScale: 16.0},
		TIMThickness:         20e-6,
		TIMConductivity:      4,
		ConvectionResistance: 0.055,
		Ambient:              318.15, // 45 °C
	}
}

// Model is the assembled RC network for one floorplan.
//
// Every floorplan is a uniform Rows × Cols grid of identical cores, and
// New gives every layer uniform per-core parameters, so the orthonormal
// 2-D DCT-II diagonalises each layer's lateral conductances and splits
// the network into Rows·Cols independent 3×3 systems, one per spatial
// mode (DESIGN.md §18). Both solves run in that basis.
type Model struct {
	fp  *floorplan.Floorplan
	cfg Config

	nCores int

	// stack holds the shared per-core parameters that define the network,
	// and basis the DCT that diagonalises every layer's lateral coupling.
	// steady[k] is mode k's steady-state response to unit die power,
	// (M₃ + Λ_k)⁻¹·e_die, per layer.
	stack  stack
	basis  basis
	steady [][numLayers]float64

	// mu guards scratch, the steady-state solve's working memory.
	// SteadyStateChecked is safe for concurrent use, but its one non-test
	// caller is DieResponse, which runs once per model, so callers never
	// queue.
	mu      sync.Mutex
	scratch modalField

	// response is the die response matrix and its transpose, built
	// together on first use.
	response once[dieResponse]
}

// dieResponse is the die response matrix R and its transpose.
type dieResponse struct{ r, rT *numeric.Matrix }

// once is a value computed on first use and shared afterwards.
type once[T any] struct {
	do  sync.Once
	val T
	err error
}

func (o *once[T]) get(build func() (T, error)) (T, error) {
	o.do.Do(func() { o.val, o.err = build() })
	return o.val, o.err
}

// New builds the network's modal operators. It returns an error if the
// configuration is unphysical.
func New(fp *floorplan.Floorplan, cfg Config) (*Model, error) {
	for name, l := range map[string]Layer{"die": cfg.Die, "spreader": cfg.Spreader, "sink": cfg.Sink} {
		if l.Conductivity <= 0 || l.Thickness <= 0 || l.VolumetricHeat <= 0 || l.AreaScale <= 0 {
			return nil, fmt.Errorf("thermal: invalid %s layer %+v", name, l)
		}
	}
	if cfg.TIMThickness <= 0 || cfg.TIMConductivity <= 0 {
		return nil, fmt.Errorf("thermal: invalid TIM (%v m, %v W/mK)", cfg.TIMThickness, cfg.TIMConductivity)
	}
	if cfg.ConvectionResistance <= 0 {
		return nil, fmt.Errorf("thermal: ConvectionResistance must be positive, got %v", cfg.ConvectionResistance)
	}
	if cfg.Ambient <= 0 {
		return nil, fmt.Errorf("thermal: Ambient must be positive, got %v", cfg.Ambient)
	}
	n := fp.N()
	m := &Model{
		fp: fp, cfg: cfg,
		nCores:  n,
		stack:   newStack(fp, cfg),
		basis:   newBasis(fp.Rows, fp.Cols),
		steady:  make([][numLayers]float64, n),
		scratch: newModalField(n),
	}
	s := &m.stack
	// The steady state needs no capacitance term; mode 0 (λ = 0) stays
	// nonsingular through the sink's ambient conductance.
	for k := range m.steady {
		inv := s.modeInverse([numLayers]float64{}, m.basis.lambda(s, k))
		for l := range m.steady[k] {
			m.steady[k][l] = inv[l][layerDie]
		}
	}
	return m, nil
}

// steadyModes writes the modal steady state of corePower into f.
func (m *Model) steadyModes(f *modalField, corePower []float64) {
	m.basis.forward(f.pHat, corePower, f.tmp)
	die, spr, sink := f.layer(layerDie), f.layer(layerSpreader), f.layer(layerSink)
	for k, s := range m.steady {
		p := f.pHat[k]
		die[k], spr[k], sink[k] = s[layerDie]*p, s[layerSpreader]*p, s[layerSink]*p
	}
}

// publishSteady converts the steady state in the model's scratch to node
// temperatures for the caller: into nodeTemps (the allocation-free path —
// the returned per-core slice is a view of nodeTemps) when it is non-nil,
// otherwise into a fresh per-core slice. Callers hold m.mu.
func (m *Model) publishSteady(nodeTemps []float64) []float64 {
	f := &m.scratch
	if nodeTemps == nil {
		out := make([]float64, m.nCores)
		m.basis.inverse(out, f.layer(layerDie), f.tmp, m.cfg.Ambient)
		return out
	}
	n := m.nCores
	for l := 0; l < numLayers; l++ {
		m.basis.inverse(nodeTemps[l*n:(l+1)*n], f.layer(l), f.tmp, m.cfg.Ambient)
	}
	return nodeTemps[:n]
}

// Floorplan returns the floorplan the model was built on.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.fp }

// Ambient returns the ambient temperature in Kelvin.
func (m *Model) Ambient() float64 { return m.cfg.Ambient }

// SteadyStateChecked solves the static network for the given per-core
// power vector (Watts into each die node) and returns the per-core die
// temperatures in Kelvin. When nodeTemps is non-nil (3 nodes per core:
// die, spreader, sink layers in turn) the full node state is written into
// it, the returned per-core slice is a view of it, and the solve is
// allocation-free; with nil nodeTemps a fresh per-core slice is returned.
// A NaN/Inf power vector or a degenerate solve yields
// numeric.ErrNonFinite (wrapped) instead of temperatures, so the caller
// can fail the run before the values reach the aging model. Safe for
// concurrent use.
func (m *Model) SteadyStateChecked(corePower []float64, nodeTemps []float64) ([]float64, error) {
	if len(corePower) != m.nCores {
		panic("thermal: SteadyState power vector length mismatch")
	}
	if !numeric.AllFinite(corePower) {
		return nil, fmt.Errorf("thermal: steady-state solve: %w", numeric.ErrNonFinite)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steadyModes(&m.scratch, corePower)
	temps := m.publishSteady(nodeTemps)
	if !numeric.AllFinite(temps) || !numeric.AllFinite(nodeTemps) {
		return nil, fmt.Errorf("thermal: steady-state solve: %w", numeric.ErrNonFinite)
	}
	return temps, nil
}

// DieResponse returns the learned thermal profile of the network: entry
// (i, j) of r is the steady-state temperature rise of core i's die, in
// K/W, per Watt injected at core j's die. rT is r's transpose, copied
// element by element: r is symmetric only up to rounding, so row j of rT
// holds column j of r bit for bit, which lets a caller read one core's
// response contiguously. It probes SteadyStateChecked with unit power at
// every core on first use; both matrices depend on nothing but the
// network, so every caller shares the one pair and must not modify it.
func (m *Model) DieResponse() (r, rT *numeric.Matrix, err error) {
	resp, err := m.response.get(func() (dieResponse, error) {
		n := m.nCores
		r := numeric.NewMatrix(n, n)
		rT := numeric.NewMatrix(n, n)
		probe := make([]float64, n)
		amb := m.Ambient()
		for j := 0; j < n; j++ {
			probe[j] = 1
			temps, err := m.SteadyStateChecked(probe, nil)
			if err != nil {
				return dieResponse{}, fmt.Errorf("thermal: probing core %d: %w", j, err)
			}
			for i := 0; i < n; i++ {
				r.Set(i, j, temps[i]-amb)
				rT.Set(j, i, r.At(i, j))
			}
			probe[j] = 0
		}
		return dieResponse{r: r, rT: rT}, nil
	})
	return resp.r, resp.rT, err
}

// Transient is an implicit-Euler integrator over the network with a fixed
// time step, (C/Δt + G)·T⁺ = C/Δt·T + P + G_amb·T_amb. It keeps its state
// in modal coordinates and steps every mode independently; only the die
// layer returns to node temperatures each step, because DTM and the
// leakage feedback read it. A Transient owns all of its buffers and is
// not safe for concurrent use.
type Transient struct {
	m *Model
	// ops[k] advances mode k by one step.
	ops   []modeStep
	field modalField
	die   []float64 // die-node temperatures in K, refreshed every step
}

// modeStep is one mode's implicit-Euler update θ̂⁺ = b·θ̂ + p·P̂, with
// A = M₃ + C/Δt + Λ_k, b = A⁻¹·C/Δt and p = A⁻¹·e_die.
type modeStep struct {
	b [numLayers][numLayers]float64
	p [numLayers]float64
}

// NewTransient creates an integrator with time step dt seconds, starting
// from a uniform ambient-temperature state. Its per-mode operators take
// O(Rows·Cols) to build.
func (m *Model) NewTransient(dt float64) (*Transient, error) {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return nil, fmt.Errorf("thermal: time step must be positive and finite, got %v", dt)
	}
	var x [numLayers]float64
	for l := range x {
		x[l] = m.stack.capac[l] / dt
	}
	ops := make([]modeStep, m.nCores)
	for k := range ops {
		inv := m.stack.modeInverse(x, m.basis.lambda(&m.stack, k))
		for i := range inv {
			for j := range inv[i] {
				ops[k].b[i][j] = inv[i][j] * x[j]
			}
			ops[k].p[i] = inv[i][layerDie]
		}
	}
	return &Transient{
		m: m, ops: ops,
		field: newModalField(m.nCores),
		die:   numeric.Fill(make([]float64, m.nCores), m.cfg.Ambient),
	}, nil
}

// SetSteadyState sets the state to the steady state of corePower, solved
// in the integrator's own buffers; a window starts here so the
// multi-second sink warm-up does not eat it. A NaN/Inf power vector or
// result yields numeric.ErrNonFinite (wrapped), as in StepChecked.
func (tr *Transient) SetSteadyState(corePower []float64) error {
	m := tr.m
	if len(corePower) != m.nCores {
		panic("thermal: SetSteadyState power vector length mismatch")
	}
	if !numeric.AllFinite(corePower) {
		return fmt.Errorf("thermal: steady-state solve: %w", numeric.ErrNonFinite)
	}
	m.steadyModes(&tr.field, corePower)
	m.basis.inverse(tr.die, tr.field.layer(layerDie), tr.field.tmp, m.cfg.Ambient)
	if !numeric.AllFinite(tr.die) {
		return fmt.Errorf("thermal: steady-state solve: %w", numeric.ErrNonFinite)
	}
	return nil
}

// CoreTemps copies the current die temperatures into dst (length nCores,
// allocated when nil) and returns it.
func (tr *Transient) CoreTemps(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, tr.m.nCores)
	}
	copy(dst, tr.die)
	return dst
}

// StepChecked advances one time step with the given per-core power
// vector (constant across the step). It returns an error when the step
// was fed (or produces) non-finite temperatures, so a poisoned power
// vector aborts the window instead of aging the chip with NaN
// temperatures. On error the integrator state is unreliable and the run
// should be abandoned.
func (tr *Transient) StepChecked(corePower []float64) error {
	if len(corePower) != tr.m.nCores {
		panic("thermal: Step power vector length mismatch")
	}
	if !numeric.AllFinite(corePower) {
		return fmt.Errorf("thermal: transient step: %w", numeric.ErrNonFinite)
	}
	tr.step(corePower)
	if !numeric.AllFinite(tr.die) {
		return fmt.Errorf("thermal: transient step: %w", numeric.ErrNonFinite)
	}
	return nil
}

// step transforms the power into modes, advances every mode and returns
// the die layer to node temperatures.
func (tr *Transient) step(corePower []float64) {
	m, f := tr.m, &tr.field
	m.basis.forward(f.pHat, corePower, f.tmp)
	die, spr, sink := f.layer(layerDie), f.layer(layerSpreader), f.layer(layerSink)
	for k := range tr.ops {
		o := &tr.ops[k]
		d, s, h, p := die[k], spr[k], sink[k], f.pHat[k]
		die[k] = float64(o.b[0][0]*d) + float64(o.b[0][1]*s) + float64(o.b[0][2]*h) + float64(o.p[0]*p)
		spr[k] = float64(o.b[1][0]*d) + float64(o.b[1][1]*s) + float64(o.b[1][2]*h) + float64(o.p[1]*p)
		sink[k] = float64(o.b[2][0]*d) + float64(o.b[2][1]*s) + float64(o.b[2][2]*h) + float64(o.p[2]*p)
	}
	m.basis.inverse(tr.die, die, f.tmp, m.cfg.Ambient)
}
