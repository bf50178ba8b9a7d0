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
// Two solvers are provided:
//
//   - SteadyState: direct solve of G·T = P + G_amb·T_amb with a
//     pre-factored LU (the matrix never changes), used for DCM evaluation
//     and epoch-level profiles.
//   - Transient: unconditionally stable implicit-Euler stepping of
//     C·dT/dt = P − G·T with the step matrix factored once per Δt, used
//     for the fine-grained intra-epoch simulation of Fig. 4.
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

// DenseNodeThreshold selects the linear-algebra backend: networks with at
// most this many nodes use a dense LU factorisation (fastest for the
// paper's 8×8 = 192-node network); larger networks switch to the sparse
// conjugate-gradient path, which scales the solver to 32×32-core
// floorplans and beyond.
const DenseNodeThreshold = 800

// Model is the assembled RC network for one floorplan.
type Model struct {
	fp  *floorplan.Floorplan
	cfg Config

	nCores int
	nNodes int // 3 · nCores: die, spreader, sink

	// tri holds the conductance matrix (including the ambient
	// conductances on the diagonal) in assembly form:
	// (G·T)_i = Σ_j g_ij (T_i − T_j) + gAmb_i (T_i − T_amb).
	tri   *numeric.Triplets
	gAmb  []float64
	capac []float64

	// Dense backend (small networks). LU solves are read-only on the
	// factorisation and safe to share across goroutines.
	luG *numeric.LU
	// Sparse backend (large networks). The CG solver carries warm-start
	// state, so concurrent solves serialise on cgMu.
	cg   *numeric.CGSolver
	cgMu sync.Mutex

	// scratch pools per-solve rhs/sol buffers so steady-state solves are
	// allocation-free on the hot path. A sync.Pool (not plain fields)
	// because SteadyState is documented safe for concurrent use — the
	// artifact cache shares one model across goroutines.
	scratch sync.Pool

	// stepLUs holds the dense transient step factorisation per Δt,
	// shared read-only by every Transient with that step; response is
	// the die response matrix. Both are built on first use.
	stepMu   sync.Mutex
	stepLUs  map[float64]*once[*numeric.LU]
	response once[*numeric.Matrix]
}

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

// steadyBuf is one pooled pair of steady-state solve buffers.
type steadyBuf struct{ rhs, sol []float64 }

// Node index helpers.
func (m *Model) dieNode(core int) int      { return core }
func (m *Model) spreaderNode(core int) int { return m.nCores + core }
func (m *Model) sinkNode(core int) int     { return 2*m.nCores + core }

// New assembles and factors the network. It returns an error if the
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
		nCores: n, nNodes: 3 * n,
		gAmb:  make([]float64, 3*n),
		capac: make([]float64, 3*n),
	}
	m.tri = numeric.NewTriplets(m.nNodes)

	coreArea := fp.CoreArea()
	addCoupling := func(a, b int, g float64) {
		m.tri.Add(a, a, g)
		m.tri.Add(b, b, g)
		m.tri.Add(a, b, -g)
		m.tri.Add(b, a, -g)
	}

	// Vertical path per core.
	for c := 0; c < n; c++ {
		// die → spreader: half die + TIM + half spreader in series.
		rDie := 0.5 * cfg.Die.Thickness / (cfg.Die.Conductivity * coreArea * cfg.Die.AreaScale)
		rTIM := cfg.TIMThickness / (cfg.TIMConductivity * coreArea * cfg.Die.AreaScale)
		rSpr := 0.5 * cfg.Spreader.Thickness / (cfg.Spreader.Conductivity * coreArea * cfg.Spreader.AreaScale)
		addCoupling(m.dieNode(c), m.spreaderNode(c), 1/(rDie+rTIM+rSpr))

		// spreader → sink: half spreader + half sink.
		rSpr2 := 0.5 * cfg.Spreader.Thickness / (cfg.Spreader.Conductivity * coreArea * cfg.Spreader.AreaScale)
		rSink := 0.5 * cfg.Sink.Thickness / (cfg.Sink.Conductivity * coreArea * cfg.Sink.AreaScale)
		addCoupling(m.spreaderNode(c), m.sinkNode(c), 1/(rSpr2+rSink))

		// sink → ambient (convection, distributed).
		m.gAmb[m.sinkNode(c)] = 1 / (cfg.ConvectionResistance * float64(n))
	}

	// Lateral couplings inside each layer between 4-neighbours.
	lateral := func(layer Layer, nodeOf func(int) int) {
		for c := 0; c < n; c++ {
			for _, nb := range m.fp.Neighbors(nil, c) {
				if nb <= c {
					continue // add each pair once
				}
				rc := c / m.fp.Cols
				rn := nb / m.fp.Cols
				var crossLen, dist float64
				if rc == rn { // horizontal neighbours share a vertical edge
					crossLen = m.fp.CoreHeight
					dist = m.fp.CoreWidth
				} else {
					crossLen = m.fp.CoreWidth
					dist = m.fp.CoreHeight
				}
				area := crossLen * layer.Thickness * layer.AreaScale
				g := layer.Conductivity * area / dist
				addCoupling(nodeOf(c), nodeOf(nb), g)
			}
		}
	}
	lateral(cfg.Die, m.dieNode)
	lateral(cfg.Spreader, m.spreaderNode)
	lateral(cfg.Sink, m.sinkNode)

	// Fold ambient conductances into the diagonal and set capacitances.
	for i := 0; i < m.nNodes; i++ {
		m.tri.Add(i, i, m.gAmb[i])
	}
	for c := 0; c < n; c++ {
		m.capac[m.dieNode(c)] = cfg.Die.VolumetricHeat * coreArea * cfg.Die.AreaScale * cfg.Die.Thickness
		m.capac[m.spreaderNode(c)] = cfg.Spreader.VolumetricHeat * coreArea * cfg.Spreader.AreaScale * cfg.Spreader.Thickness
		m.capac[m.sinkNode(c)] = cfg.Sink.VolumetricHeat * coreArea * cfg.Sink.AreaScale * cfg.Sink.Thickness
	}

	if m.nNodes <= DenseNodeThreshold {
		lu, err := numeric.FactorLU(m.tri.ToDense())
		if err != nil {
			return nil, fmt.Errorf("thermal: conductance matrix singular: %w", err)
		}
		m.luG = lu
	} else {
		cg, err := numeric.NewCGSolver(m.tri.ToCSR(), 1e-10, 20*m.nNodes)
		if err != nil {
			return nil, fmt.Errorf("thermal: sparse solver: %w", err)
		}
		m.cg = cg
	}
	nn := m.nNodes
	m.scratch.New = func() any {
		return &steadyBuf{rhs: make([]float64, nn), sol: make([]float64, nn)}
	}
	return m, nil
}

// fillSteadyRHS writes the steady-state right-hand side — ambient inflow
// plus the per-core die power injection — into rhs (length nNodes).
func (m *Model) fillSteadyRHS(rhs, corePower []float64) {
	for i := range rhs {
		rhs[i] = m.gAmb[i] * m.cfg.Ambient
	}
	for c, p := range corePower {
		rhs[m.dieNode(c)] += p
	}
}

// publishSolution hands the pooled node solution to the caller: copied
// into nodeTemps (the allocation-free path — the returned per-core slice
// is a view of nodeTemps) when it is non-nil, otherwise as a fresh
// per-core copy. The pooled buffer itself must never escape: a
// concurrent solve may reuse it as soon as it is returned to the pool.
func (m *Model) publishSolution(sol, nodeTemps []float64) []float64 {
	if nodeTemps != nil {
		copy(nodeTemps, sol)
		return nodeTemps[:m.nCores]
	}
	out := make([]float64, m.nCores)
	copy(out, sol)
	return out
}

// solveSteady dispatches to the active backend. It is safe for
// concurrent use: the dense path only reads the factorisation, and the
// sparse path serialises on the solver's warm-start state.
func (m *Model) solveSteady(dst, rhs []float64) {
	if m.luG != nil {
		//lint:ignore checked-solve deliberate unchecked fast path; guarded callers go through solveSteadyChecked
		m.luG.Solve(dst, rhs)
		return
	}
	m.cgMu.Lock()
	defer m.cgMu.Unlock()
	//lint:ignore checked-solve deliberate unchecked fast path; guarded callers go through solveSteadyChecked
	if _, ok := m.cg.Solve(dst, rhs); !ok {
		// The conductance matrix is SPD and well conditioned; failure
		// here indicates a programming error, not a numerical edge.
		panic("thermal: CG did not converge on the steady-state system")
	}
}

// solveSteadyChecked is solveSteady with a non-finite guard: it returns an
// error (instead of panicking or silently propagating NaN temperatures)
// when the right-hand side is poisoned, the solve diverges, or the sparse
// solver fails to converge.
func (m *Model) solveSteadyChecked(dst, rhs []float64) error {
	if m.luG != nil {
		if err := m.luG.SolveChecked(dst, rhs); err != nil {
			return fmt.Errorf("thermal: steady-state solve: %w", err)
		}
		return nil
	}
	if !numeric.AllFinite(rhs) {
		return fmt.Errorf("thermal: steady-state solve: %w", numeric.ErrNonFinite)
	}
	m.cgMu.Lock()
	defer m.cgMu.Unlock()
	//lint:ignore checked-solve CG has no Checked variant; rhs and dst are AllFinite-guarded on both sides of this call
	if _, ok := m.cg.Solve(dst, rhs); !ok {
		return fmt.Errorf("thermal: CG did not converge on the steady-state system")
	}
	if !numeric.AllFinite(dst) {
		return fmt.Errorf("thermal: steady-state solve: %w", numeric.ErrNonFinite)
	}
	return nil
}

// Floorplan returns the floorplan the model was built on.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.fp }

// Config returns the physical configuration.
func (m *Model) Config() Config { return m.cfg }

// Ambient returns the ambient temperature in Kelvin.
func (m *Model) Ambient() float64 { return m.cfg.Ambient }

// NumNodes returns the total RC node count (3 per core).
func (m *Model) NumNodes() int { return m.nNodes }

// SteadyState solves the static network for the given per-core power
// vector (Watts into each die node) and returns the per-core die
// temperatures in Kelvin. When nodeTemps is non-nil (length NumNodes)
// the full node state is written into it, the returned per-core slice is
// a view of it, and the solve is allocation-free; with nil nodeTemps a
// fresh per-core slice is returned. Safe for concurrent use.
func (m *Model) SteadyState(corePower []float64, nodeTemps []float64) []float64 {
	if len(corePower) != m.nCores {
		panic("thermal: SteadyState power vector length mismatch")
	}
	buf := m.scratch.Get().(*steadyBuf)
	defer m.scratch.Put(buf)
	m.fillSteadyRHS(buf.rhs, corePower)
	m.solveSteady(buf.sol, buf.rhs)
	return m.publishSolution(buf.sol, nodeTemps)
}

// SteadyStateChecked is SteadyState returning an error instead of letting
// non-finite temperatures escape: a NaN/Inf power vector or a degenerate
// solve yields numeric.ErrNonFinite (wrapped) so the caller can fail the
// run before the values reach the aging model.
// Like SteadyState it is allocation-free when nodeTemps is provided (the
// returned per-core slice is then a view of nodeTemps).
func (m *Model) SteadyStateChecked(corePower []float64, nodeTemps []float64) ([]float64, error) {
	if len(corePower) != m.nCores {
		panic("thermal: SteadyState power vector length mismatch")
	}
	buf := m.scratch.Get().(*steadyBuf)
	defer m.scratch.Put(buf)
	m.fillSteadyRHS(buf.rhs, corePower)
	if err := m.solveSteadyChecked(buf.sol, buf.rhs); err != nil {
		return nil, err
	}
	return m.publishSolution(buf.sol, nodeTemps), nil
}

// DieResponse returns the learned thermal profile of the network: entry
// (i, j) is the steady-state temperature rise of core i's die, in K/W, per
// Watt injected at core j's die. It probes SteadyStateChecked with unit
// power at every core on first use; the matrix depends on nothing but the
// network, so every caller shares the one result and must not modify it.
func (m *Model) DieResponse() (*numeric.Matrix, error) {
	return m.response.get(func() (*numeric.Matrix, error) {
		n := m.nCores
		resp := numeric.NewMatrix(n, n)
		probe := make([]float64, n)
		amb := m.Ambient()
		for j := 0; j < n; j++ {
			probe[j] = 1
			temps, err := m.SteadyStateChecked(probe, nil)
			if err != nil {
				return nil, fmt.Errorf("thermal: probing core %d: %w", j, err)
			}
			for i := 0; i < n; i++ {
				resp.Set(i, j, temps[i]-amb)
			}
			probe[j] = 0
		}
		return resp, nil
	})
}

// HeatOutflow returns the total heat flowing to ambient (Watts) for a full
// node-temperature state — equal to the injected power in steady state
// (energy conservation).
func (m *Model) HeatOutflow(nodeTemps []float64) float64 {
	q := 0.0
	for i, g := range m.gAmb {
		if g != 0 {
			q += g * (nodeTemps[i] - m.cfg.Ambient)
		}
	}
	return q
}

// Transient is an implicit-Euler integrator over the network with a fixed
// time step. The dense step matrix (C/Δt + G) is factored once per model
// and Δt and shared by every Transient with that step.
type Transient struct {
	m     *Model
	dt    float64
	lu    *numeric.LU       // dense backend
	cg    *numeric.CGSolver // sparse backend
	state []float64         // node temperatures
	rhs   []float64
}

// NewTransient creates an integrator with time step dt seconds, starting
// from a uniform ambient-temperature state.
func (m *Model) NewTransient(dt float64) (*Transient, error) {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return nil, fmt.Errorf("thermal: time step must be positive and finite, got %v", dt)
	}
	tr := &Transient{
		m: m, dt: dt,
		state: make([]float64, m.nNodes),
		rhs:   make([]float64, m.nNodes),
	}
	if m.nNodes <= DenseNodeThreshold {
		lu, err := m.stepLU(dt)
		if err != nil {
			return nil, err
		}
		tr.lu = lu
	} else {
		// The CG solver carries warm-start state, so each Transient
		// keeps its own.
		cg, err := numeric.NewCGSolver(m.stepMatrix(dt).ToCSR(), 1e-10, 20*m.nNodes)
		if err != nil {
			return nil, fmt.Errorf("thermal: sparse step solver: %w", err)
		}
		tr.cg = cg
	}
	numeric.Fill(tr.state, m.cfg.Ambient)
	return tr, nil
}

// stepMatrix assembles the implicit-Euler step matrix C/Δt + G.
func (m *Model) stepMatrix(dt float64) *numeric.Triplets {
	step := numeric.NewTriplets(m.nNodes)
	for _, e := range m.tri.Entries() {
		step.Add(e.I, e.J, e.V)
	}
	for i := 0; i < m.nNodes; i++ {
		step.Add(i, i, m.capac[i]/dt)
	}
	return step
}

// stepLU returns the dense factorisation of the step matrix for dt,
// factoring it on first use. LU solves only read the factors, so one
// factorisation serves every Transient with this step, concurrently too.
// An engine uses one Δt, so the map stays tiny.
func (m *Model) stepLU(dt float64) (*numeric.LU, error) {
	m.stepMu.Lock()
	if m.stepLUs == nil {
		m.stepLUs = make(map[float64]*once[*numeric.LU])
	}
	e, ok := m.stepLUs[dt]
	if !ok {
		e = &once[*numeric.LU]{}
		m.stepLUs[dt] = e
	}
	m.stepMu.Unlock()
	return e.get(func() (*numeric.LU, error) {
		lu, err := numeric.FactorLU(m.stepMatrix(dt).ToDense())
		if err != nil {
			return nil, fmt.Errorf("thermal: step matrix singular: %w", err)
		}
		return lu, nil
	})
}

// Dt returns the integrator's time step in seconds.
func (tr *Transient) Dt() float64 { return tr.dt }

// SetState overwrites the full node state (length NumNodes), e.g. with a
// steady-state solution to skip the warm-up transient.
func (tr *Transient) SetState(nodeTemps []float64) {
	if len(nodeTemps) != tr.m.nNodes {
		panic("thermal: SetState length mismatch")
	}
	copy(tr.state, nodeTemps)
}

// State returns the current full node state (a view; copy before mutating).
func (tr *Transient) State() []float64 { return tr.state }

// CoreTemps copies the current die temperatures into dst (length nCores,
// allocated when nil) and returns it.
func (tr *Transient) CoreTemps(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, tr.m.nCores)
	}
	copy(dst, tr.state[:tr.m.nCores])
	return dst
}

// Step advances one time step with the given per-core power vector
// (constant across the step): (C/Δt + G)·T⁺ = C/Δt·T + P + G_amb·T_amb.
func (tr *Transient) Step(corePower []float64) {
	m := tr.m
	if len(corePower) != m.nCores {
		panic("thermal: Step power vector length mismatch")
	}
	for i := range tr.rhs {
		tr.rhs[i] = m.capac[i]/tr.dt*tr.state[i] + m.gAmb[i]*m.cfg.Ambient
	}
	for c, p := range corePower {
		tr.rhs[m.dieNode(c)] += p
	}
	if tr.lu != nil {
		//lint:ignore checked-solve deliberate unchecked fast path; guarded callers use StepChecked
		tr.lu.Solve(tr.state, tr.rhs)
		return
	}
	//lint:ignore checked-solve deliberate unchecked fast path; guarded callers use StepChecked
	if _, ok := tr.cg.Solve(tr.state, tr.rhs); !ok {
		panic("thermal: CG did not converge on the transient step")
	}
}

// StepChecked is Step returning an error when the step produces (or was
// fed) non-finite temperatures, so a poisoned power vector aborts the
// window instead of aging the chip with NaN temperatures. On error the
// integrator state is unreliable and the run should be abandoned.
func (tr *Transient) StepChecked(corePower []float64) error {
	m := tr.m
	if len(corePower) != m.nCores {
		panic("thermal: Step power vector length mismatch")
	}
	for i := range tr.rhs {
		tr.rhs[i] = m.capac[i]/tr.dt*tr.state[i] + m.gAmb[i]*m.cfg.Ambient
	}
	for c, p := range corePower {
		tr.rhs[m.dieNode(c)] += p
	}
	if tr.lu != nil {
		if err := tr.lu.SolveChecked(tr.state, tr.rhs); err != nil {
			return fmt.Errorf("thermal: transient step: %w", err)
		}
		return nil
	}
	if !numeric.AllFinite(tr.rhs) {
		return fmt.Errorf("thermal: transient step: %w", numeric.ErrNonFinite)
	}
	//lint:ignore checked-solve CG has no Checked variant; rhs and state are AllFinite-guarded on both sides of this call
	if _, ok := tr.cg.Solve(tr.state, tr.rhs); !ok {
		return fmt.Errorf("thermal: CG did not converge on the transient step")
	}
	if !numeric.AllFinite(tr.state) {
		return fmt.Errorf("thermal: transient step: %w", numeric.ErrNonFinite)
	}
	return nil
}
