package thermal

import "testing"

// This file holds the block model's test-side views: the RC network
// assembled node by node from the model's per-core stack parameters —
// the independent definition the modal solves are checked against — the
// full node state, and must-wrappers around the checked solves.

// NumNodes returns the total RC node count (3 per core: die, spreader
// and sink layers in turn).
func (m *Model) NumNodes() int { return numLayers * m.nCores }

// node returns the node index of core's node in layer l.
func (m *Model) node(l, core int) int { return l*m.nCores + core }

// network is the block model's RC network in assembly form:
// (G·T)_i = Σ_j g_ij (T_i − T_j) + gAmb_i (T_i − T_amb), with the
// ambient conductances folded into tri's diagonal, and capac the node
// heat capacities.
type network struct {
	tri   *Triplets
	gAmb  []float64
	capac []float64
}

// network assembles m's RC network node by node, walking the floorplan's
// 4-neighbourhoods.
func (m *Model) network() network {
	fp, s, n := m.fp, &m.stack, m.nCores
	nw := network{
		tri:   NewTriplets(m.NumNodes()),
		gAmb:  make([]float64, m.NumNodes()),
		capac: make([]float64, m.NumNodes()),
	}
	addCoupling := func(a, b int, g float64) {
		nw.tri.Add(a, a, g)
		nw.tri.Add(b, b, g)
		nw.tri.Add(a, b, -g)
		nw.tri.Add(b, a, -g)
	}
	for c := 0; c < n; c++ {
		// Vertical path per core, and the sink's convection to ambient.
		addCoupling(m.node(layerDie, c), m.node(layerSpreader, c), s.gDieSpr)
		addCoupling(m.node(layerSpreader, c), m.node(layerSink, c), s.gSprSink)
		nw.gAmb[m.node(layerSink, c)] = s.gSinkAmb
		// Lateral couplings inside each layer between 4-neighbours, each
		// pair once.
		for _, nb := range fp.Neighbors(nil, c) {
			if nb <= c {
				continue
			}
			horizontal := c/fp.Cols == nb/fp.Cols
			for l := 0; l < numLayers; l++ {
				g := s.gV[l]
				if horizontal {
					g = s.gH[l]
				}
				addCoupling(m.node(l, c), m.node(l, nb), g)
			}
		}
		for l := 0; l < numLayers; l++ {
			nw.capac[m.node(l, c)] = s.capac[l]
		}
	}
	for i, g := range nw.gAmb {
		nw.tri.Add(i, i, g)
	}
	return nw
}

// HeatOutflow returns the total heat flowing to ambient (Watts) for a full
// node-temperature state — equal to the injected power in steady state
// (energy conservation).
func (m *Model) HeatOutflow(nodeTemps []float64) float64 {
	q := 0.0
	for c := 0; c < m.nCores; c++ {
		q += m.stack.gSinkAmb * (nodeTemps[m.node(layerSink, c)] - m.cfg.Ambient)
	}
	return q
}

// SetState overwrites the full node state (length NumNodes).
func (tr *Transient) SetState(nodeTemps []float64) {
	m := tr.m
	if len(nodeTemps) != m.NumNodes() {
		panic("thermal: SetState length mismatch")
	}
	n, f := m.nCores, &tr.field
	for l := 0; l < numLayers; l++ {
		over := f.pHat // free between steps
		for i := range over {
			over[i] = nodeTemps[l*n+i] - m.cfg.Ambient
		}
		m.basis.forward(f.layer(l), over, f.tmp)
	}
	copy(tr.die, nodeTemps[:n])
}

// State returns the current full node state, converted from modal
// coordinates into a fresh slice.
func (tr *Transient) State() []float64 {
	m, n := tr.m, tr.m.nCores
	nodes := make([]float64, m.NumNodes())
	copy(nodes, tr.die)
	for l := layerSpreader; l < numLayers; l++ {
		m.basis.inverse(nodes[l*n:(l+1)*n], tr.field.layer(l), tr.field.tmp, m.cfg.Ambient)
	}
	return nodes
}

// mustSteady is SteadyStateChecked for a power vector the test knows is
// finite.
func mustSteady(t testing.TB, m *Model, power, nodeTemps []float64) []float64 {
	t.Helper()
	temps, err := m.SteadyStateChecked(power, nodeTemps)
	if err != nil {
		t.Fatal(err)
	}
	return temps
}

// mustStep is StepChecked for a power vector the test knows is finite.
func mustStep(t testing.TB, tr *Transient, power []float64) {
	t.Helper()
	if err := tr.StepChecked(power); err != nil {
		t.Fatal(err)
	}
}
