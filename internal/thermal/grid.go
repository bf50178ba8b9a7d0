package thermal

import (
	"fmt"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/numeric"
)

// GridModel is the sub-core-resolution variant of the compact model —
// HotSpot's "grid mode". Each core's silicon is split into SubDiv×SubDiv
// tiles with lateral conductances between adjacent tiles (within and
// across core boundaries); spreader and sink stay at one node per core.
// Core power is distributed over the core's tiles according to a
// configurable density profile, which lets the model resolve intra-core
// hot spots that the block model averages away.
//
// The block model (Model) remains the engine's workhorse — a 64-core
// grid at SubDiv=2 has 384 nodes and, unlike the block model, does not
// split into independent modes — but GridModel validates the block
// model's accuracy (see the block-vs-grid consistency tests) and serves
// floorplans that need intra-core detail.
//
// The network is symmetric positive definite and ≥ 95 % zeros already at
// 8×8/SubDiv=2, so it has one solver: Jacobi-preconditioned conjugate
// gradients over its CSR form, warm-started from the previous solution.
//
// A GridModel is NOT safe for concurrent solves: the RHS, solution and
// reduction buffers and the CG warm-start state are shared scratch,
// reused across calls. Slices returned by the SteadyState family are
// views of that scratch — valid until the next solve on the same model;
// copy them to retain.
type GridModel struct {
	fp     *floorplan.Floorplan
	cfg    Config
	subdiv int

	nCores int
	nTiles int // nCores · subdiv²
	nNodes int // nTiles + 2·nCores

	// tri keeps the assembled conductance pattern (for diagnostics and
	// re-assembly); cg solves it.
	tri   *numeric.Triplets
	cg    *numeric.CGSolver
	gAmb  []float64
	capac []float64

	// Scratch arenas reused across solves (see the concurrency note on
	// the type): RHS, node solution, and the per-core reductions.
	rhsBuf []float64
	solBuf []float64
	avgBuf []float64
	maxBuf []float64

	// density[k] is the fraction of a core's power injected into its
	// k-th tile (row-major inside the core); sums to 1.
	density []float64
}

// Node index helpers.
func (m *GridModel) tileNode(core, tile int) int   { return core*m.subdiv*m.subdiv + tile }
func (m *GridModel) gridSpreaderNode(core int) int { return m.nTiles + core }
func (m *GridModel) gridSinkNode(core int) int     { return m.nTiles + m.nCores + core }

// NewGrid assembles a sub-core-resolution network. subdiv must be ≥ 1;
// subdiv == 1 reproduces the block model exactly. density may be nil
// (uniform) or hold subdiv² non-negative weights (normalised internally).
//
// The conductance pattern is fixed at construction: power gating changes
// the power injection (the right-hand side), never the conductances — a
// dark core's silicon still conducts, which is exactly why dark cores act
// as heat-escape paths — so no DCM change ever invalidates the operator.
// The CG warm start likewise stays valid across DCM changes (the previous
// field is an excellent initial guess); call InvalidateWarmStart to make
// a solve independent of call history.
func NewGrid(fp *floorplan.Floorplan, cfg Config, subdiv int, density []float64) (*GridModel, error) {
	if subdiv < 1 {
		return nil, fmt.Errorf("thermal: subdiv must be ≥1, got %d", subdiv)
	}
	// Reuse the block model's validation.
	if _, err := New(fp, cfg); err != nil {
		return nil, err
	}
	s2 := subdiv * subdiv
	if density != nil && len(density) != s2 {
		return nil, fmt.Errorf("thermal: density needs %d weights, got %d", s2, len(density))
	}
	n := fp.N()
	m := &GridModel{
		fp: fp, cfg: cfg, subdiv: subdiv,
		nCores: n, nTiles: n * s2, nNodes: n*s2 + 2*n,
		density: make([]float64, s2),
	}
	if density == nil {
		for k := range m.density {
			m.density[k] = 1 / float64(s2)
		}
	} else {
		sum := 0.0
		for _, w := range density {
			if w < 0 {
				return nil, fmt.Errorf("thermal: negative density weight %v", w)
			}
			sum += w
		}
		if sum <= 0 {
			return nil, fmt.Errorf("thermal: density weights sum to zero")
		}
		for k, w := range density {
			m.density[k] = w / sum
		}
	}

	m.tri = numeric.NewTriplets(m.nNodes)
	m.gAmb = make([]float64, m.nNodes)
	m.capac = make([]float64, m.nNodes)
	m.rhsBuf = make([]float64, m.nNodes)
	m.solBuf = make([]float64, m.nNodes)
	m.avgBuf = make([]float64, m.nCores)
	m.maxBuf = make([]float64, m.nCores)

	tileW := fp.CoreWidth / float64(subdiv)
	tileH := fp.CoreHeight / float64(subdiv)
	tileArea := tileW * tileH
	coreArea := fp.CoreArea()

	addCoupling := func(a, b int, g float64) {
		m.tri.Add(a, a, g)
		m.tri.Add(b, b, g)
		m.tri.Add(a, b, -g)
		m.tri.Add(b, a, -g)
	}

	// Vertical: each tile → its core's spreader node (die half + TIM +
	// spreader half in series, scaled to the tile footprint).
	for c := 0; c < n; c++ {
		for t := 0; t < s2; t++ {
			rDie := 0.5 * cfg.Die.Thickness / (cfg.Die.Conductivity * tileArea * cfg.Die.AreaScale)
			rTIM := cfg.TIMThickness / (cfg.TIMConductivity * tileArea * cfg.Die.AreaScale)
			// The spreader half-resistance stays a per-core quantity; the
			// tile sees its share through the area ratio.
			rSpr := 0.5 * cfg.Spreader.Thickness / (cfg.Spreader.Conductivity * tileArea * cfg.Spreader.AreaScale)
			addCoupling(m.tileNode(c, t), m.gridSpreaderNode(c), 1/(rDie+rTIM+rSpr))
		}
		// spreader → sink and sink → ambient exactly as in the block
		// model (per-core footprints).
		rSpr2 := 0.5 * cfg.Spreader.Thickness / (cfg.Spreader.Conductivity * coreArea * cfg.Spreader.AreaScale)
		rSink := 0.5 * cfg.Sink.Thickness / (cfg.Sink.Conductivity * coreArea * cfg.Sink.AreaScale)
		addCoupling(m.gridSpreaderNode(c), m.gridSinkNode(c), 1/(rSpr2+rSink))
		m.gAmb[m.gridSinkNode(c)] = 1 / (cfg.ConvectionResistance * float64(n))
	}

	// Lateral die couplings on the global tile lattice.
	gRows := fp.Rows * subdiv
	gCols := fp.Cols * subdiv
	nodeAt := func(gr, gc int) int {
		core := fp.Index(gr/subdiv, gc/subdiv)
		tile := (gr%subdiv)*subdiv + gc%subdiv
		return m.tileNode(core, tile)
	}
	for gr := 0; gr < gRows; gr++ {
		for gc := 0; gc < gCols; gc++ {
			if gc+1 < gCols { // horizontal edge
				area := tileH * cfg.Die.Thickness * cfg.Die.AreaScale
				addCoupling(nodeAt(gr, gc), nodeAt(gr, gc+1), cfg.Die.Conductivity*area/tileW)
			}
			if gr+1 < gRows { // vertical edge
				area := tileW * cfg.Die.Thickness * cfg.Die.AreaScale
				addCoupling(nodeAt(gr, gc), nodeAt(gr+1, gc), cfg.Die.Conductivity*area/tileH)
			}
		}
	}

	// Lateral spreader and sink couplings per core, as in the block model.
	lateralPerCore := func(layer Layer, nodeOf func(int) int) {
		for c := 0; c < n; c++ {
			for _, nb := range fp.Neighbors(nil, c) {
				if nb <= c {
					continue
				}
				rc := c / fp.Cols
				rn := nb / fp.Cols
				var crossLen, dist float64
				if rc == rn {
					crossLen, dist = fp.CoreHeight, fp.CoreWidth
				} else {
					crossLen, dist = fp.CoreWidth, fp.CoreHeight
				}
				area := crossLen * layer.Thickness * layer.AreaScale
				addCoupling(nodeOf(c), nodeOf(nb), layer.Conductivity*area/dist)
			}
		}
	}
	lateralPerCore(cfg.Spreader, m.gridSpreaderNode)
	lateralPerCore(cfg.Sink, m.gridSinkNode)

	// Ambient fold-in and capacitances.
	for i := 0; i < m.nNodes; i++ {
		m.tri.Add(i, i, m.gAmb[i])
	}
	for c := 0; c < n; c++ {
		for t := 0; t < s2; t++ {
			m.capac[m.tileNode(c, t)] = cfg.Die.VolumetricHeat * tileArea * cfg.Die.AreaScale * cfg.Die.Thickness
		}
		m.capac[m.gridSpreaderNode(c)] = cfg.Spreader.VolumetricHeat * coreArea * cfg.Spreader.AreaScale * cfg.Spreader.Thickness
		m.capac[m.gridSinkNode(c)] = cfg.Sink.VolumetricHeat * coreArea * cfg.Sink.AreaScale * cfg.Sink.Thickness
	}

	// A relative residual of 1e-12 holds every grid solve within 1e-9 K of
	// a direct solve (TestGridMatchesDirectSolve,
	// TestGridSubdiv1MatchesBlockModel); 1e-10 does not.
	cg, err := numeric.NewCGSolver(m.tri.ToCSR(), 1e-12, 20*m.nNodes)
	if err != nil {
		return nil, fmt.Errorf("thermal: grid solver: %w", err)
	}
	m.cg = cg
	return m, nil
}

// InvalidateWarmStart resets the CG warm start so the next solve is
// independent of the model's call history. The conductance pattern never
// changes after construction — DCM changes move power, not conductance —
// so there is no corresponding reassembly trigger.
func (m *GridModel) InvalidateWarmStart() { m.cg.Reset() }

// SubDiv returns the per-core tiling factor.
func (m *GridModel) SubDiv() int { return m.subdiv }

// NumNodes returns the total node count.
func (m *GridModel) NumNodes() int { return m.nNodes }

// NumTiles returns the total die-tile count.
func (m *GridModel) NumTiles() int { return m.nTiles }

// solve runs CG into sol (a scratch arena, len nNodes).
func (m *GridModel) solve(sol, rhs []float64) {
	//lint:ignore checked-solve deliberate unchecked fast path; guarded callers use SteadyStateChecked
	if _, ok := m.cg.Solve(sol, rhs); !ok {
		// The conductance matrix is SPD and well conditioned; failure
		// here indicates a programming error, not a numerical edge.
		panic("thermal: CG did not converge on the grid steady-state system")
	}
}

// solveChecked is solve with a non-finite guard, mirroring
// (*Model).SteadyStateChecked.
func (m *GridModel) solveChecked(sol, rhs []float64) error {
	if !numeric.AllFinite(rhs) {
		return fmt.Errorf("thermal: grid steady-state solve: %w", numeric.ErrNonFinite)
	}
	//lint:ignore checked-solve CG has no Checked variant; rhs and sol are AllFinite-guarded on both sides of this call
	if _, ok := m.cg.Solve(sol, rhs); !ok {
		return fmt.Errorf("thermal: CG did not converge on the grid steady-state system")
	}
	if !numeric.AllFinite(sol) {
		return fmt.Errorf("thermal: grid steady-state solve: %w", numeric.ErrNonFinite)
	}
	return nil
}

// SteadyState solves the static network for per-core powers (distributed
// over tiles by the density profile). It returns the per-core average and
// maximum die-tile temperatures; when tileTemps is non-nil (length
// NumTiles) the full tile field is copied into it. The returned slices
// are reused scratch — valid until the next solve on this model; copy
// them to retain. The solve itself is allocation-free.
func (m *GridModel) SteadyState(corePower []float64, tileTemps []float64) (coreAvg, coreMax []float64) {
	if len(corePower) != m.nCores {
		panic("thermal: grid SteadyState power vector length mismatch")
	}
	rhs := m.assembleRHS(corePower)
	m.solve(m.solBuf, rhs)
	return m.reduceTiles(m.solBuf, tileTemps)
}

// SteadyStateChecked is SteadyState returning an error instead of
// letting non-finite temperatures escape, mirroring
// (*Model).SteadyStateChecked: a NaN/Inf power vector or a degenerate
// solve yields numeric.ErrNonFinite (wrapped). The returned slices are
// reused scratch, as in SteadyState.
func (m *GridModel) SteadyStateChecked(corePower []float64, tileTemps []float64) (coreAvg, coreMax []float64, err error) {
	if len(corePower) != m.nCores {
		panic("thermal: grid SteadyState power vector length mismatch")
	}
	rhs := m.assembleRHS(corePower)
	if err := m.solveChecked(m.solBuf, rhs); err != nil {
		return nil, nil, err
	}
	coreAvg, coreMax = m.reduceTiles(m.solBuf, tileTemps)
	return coreAvg, coreMax, nil
}

// assembleRHS fills the shared RHS buffer with ambient inflow plus the
// density-weighted per-tile power injection.
func (m *GridModel) assembleRHS(corePower []float64) []float64 {
	rhs := m.rhsBuf
	for i := range rhs {
		rhs[i] = m.gAmb[i] * m.cfg.Ambient
	}
	s2 := m.subdiv * m.subdiv
	for c, p := range corePower {
		for t := 0; t < s2; t++ {
			rhs[m.tileNode(c, t)] += p * m.density[t]
		}
	}
	return rhs
}

// reduceTiles folds a full node solution into per-core average and
// maximum die-tile temperatures (into the model's reduction arenas),
// copying the tile field out when requested.
func (m *GridModel) reduceTiles(sol, tileTemps []float64) (coreAvg, coreMax []float64) {
	if tileTemps != nil {
		copy(tileTemps, sol[:m.nTiles])
	}
	coreAvg, coreMax = m.avgBuf, m.maxBuf
	s2 := m.subdiv * m.subdiv
	for c := 0; c < m.nCores; c++ {
		// Seed both folds from the core's first tile, not from a 0.0
		// sentinel: an entirely negative tile field (sub-zero-Celsius
		// ambient, delta-from-ambient solves) would otherwise report
		// coreMax = 0.
		first := sol[m.tileNode(c, 0)]
		sum, max := first, first
		for t := 1; t < s2; t++ {
			v := sol[m.tileNode(c, t)]
			sum += v
			if v > max {
				max = v
			}
		}
		coreAvg[c] = sum / float64(s2)
		coreMax[c] = max
	}
	return coreAvg, coreMax
}

// HeatOutflow returns the heat flowing to ambient for a full node state.
func (m *GridModel) HeatOutflow(nodeState []float64) float64 {
	q := 0.0
	for i, g := range m.gAmb {
		if g != 0 {
			q += g * (nodeState[i] - m.cfg.Ambient)
		}
	}
	return q
}

// SteadyStateNodes is like SteadyState but returns the full node state
// (tiles, spreader, sink) for energy accounting. The returned slice is
// the model's solution arena — valid until the next solve.
func (m *GridModel) SteadyStateNodes(corePower []float64) []float64 {
	rhs := m.assembleRHS(corePower)
	m.solve(m.solBuf, rhs)
	return m.solBuf
}
