package thermal

import (
	"math"

	"github.com/kit-ces/hayat/internal/floorplan"
)

// Layer indices of the three-layer stack, in node order.
const (
	layerDie = iota
	layerSpreader
	layerSink
	numLayers
)

// stack holds the per-core conductances and capacitances that every core
// of a Model shares. The floorplan is a uniform grid of identical cores
// and New gives every layer uniform parameters, so these few numbers
// define the whole network: New assembles tri from them, and the modal
// operators are derived from them too.
type stack struct {
	// gDieSpr and gSprSink are the vertical conductances inside one core's
	// stack; gSinkAmb is its sink's convection to ambient. All in W/K.
	gDieSpr, gSprSink, gSinkAmb float64
	// gH[l] couples horizontal neighbours (same row) in layer l, gV[l]
	// vertical neighbours (same column). W/K.
	gH, gV [numLayers]float64
	// capac[l] is one core's heat capacity in layer l, J/K.
	capac [numLayers]float64
}

// newStack computes the shared per-core parameters of a floorplan.
func newStack(fp *floorplan.Floorplan, cfg Config) stack {
	coreArea := fp.CoreArea()
	layers := [numLayers]Layer{cfg.Die, cfg.Spreader, cfg.Sink}
	var s stack
	// die → spreader: half die + TIM + half spreader in series.
	rDie := 0.5 * cfg.Die.Thickness / (cfg.Die.Conductivity * coreArea * cfg.Die.AreaScale)
	rTIM := cfg.TIMThickness / (cfg.TIMConductivity * coreArea * cfg.Die.AreaScale)
	rSpr := 0.5 * cfg.Spreader.Thickness / (cfg.Spreader.Conductivity * coreArea * cfg.Spreader.AreaScale)
	s.gDieSpr = 1 / (rDie + rTIM + rSpr)
	// spreader → sink: half spreader + half sink.
	rSink := 0.5 * cfg.Sink.Thickness / (cfg.Sink.Conductivity * coreArea * cfg.Sink.AreaScale)
	s.gSprSink = 1 / (rSpr + rSink)
	// sink → ambient: convection, distributed uniformly over the cores.
	s.gSinkAmb = 1 / (cfg.ConvectionResistance * float64(fp.N()))
	for l, layer := range layers {
		// Horizontal neighbours share a vertical edge of the core's
		// height and sit one core width apart; vertical ones the reverse.
		s.gH[l] = layer.Conductivity * (fp.CoreHeight * layer.Thickness * layer.AreaScale) / fp.CoreWidth
		s.gV[l] = layer.Conductivity * (fp.CoreWidth * layer.Thickness * layer.AreaScale) / fp.CoreHeight
		s.capac[l] = layer.VolumetricHeat * coreArea * layer.AreaScale * layer.Thickness
	}
	return s
}

// modeInverse returns the inverse of one mode's 3×3 system
//
//	A = M₃ + diag(x) + diag(λ),
//
// where M₃ is the per-core vertical block (die–spreader, spreader–sink,
// sink–ambient), x the per-layer extra diagonal (C/Δt for a transient
// step, zero for the steady state) and λ the mode's per-layer lateral
// eigenvalues. A is a symmetric tridiagonal M-matrix; the cofactors are
// written as sums of non-negative terms, so no cancellation can cost
// precision.
func (s *stack) modeInverse(x, lam [numLayers]float64) [numLayers][numLayers]float64 {
	g1, g2 := s.gDieSpr, s.gSprSink
	u := x[layerDie] + lam[layerDie]                // die excess over its couplings
	v := x[layerSpreader] + lam[layerSpreader]      // spreader excess
	w := x[layerSink] + lam[layerSink] + s.gSinkAmb // sink excess, ambient included
	a, c, e := g1+u, g1+g2+v, g2+w                  // the diagonal
	c11 := (g1+v)*e + g2*w                          // c·e − g2²
	c33 := g1*(g2+v) + u*c                          // a·c − g1²
	c22 := a * e
	c12, c13, c23 := g1*e, g1*g2, a*g2 // off-diagonal cofactors
	inv := 1 / (u*c11 + g1*(v*e+g2*w)) // 1/det
	return [numLayers][numLayers]float64{
		{c11 * inv, c12 * inv, c13 * inv},
		{c12 * inv, c22 * inv, c23 * inv},
		{c13 * inv, c23 * inv, c33 * inv},
	}
}

// dct is the orthonormal DCT-II basis of one grid axis of m nodes:
// phi[j*m+k] is basis vector k at node j, and mu[k] = 2 − 2cos(πk/m) is
// its eigenvalue under the free-boundary path Laplacian on m nodes (the
// matrix with 1, 2, …, 2, 1 on the diagonal and −1 beside it), which the
// basis diagonalises exactly.
type dct struct {
	m   int
	phi []float64
	mu  []float64
}

func newDCT(m int) dct {
	d := dct{m: m, phi: make([]float64, m*m), mu: make([]float64, m)}
	for k := 0; k < m; k++ {
		scale := math.Sqrt(2 / float64(m))
		if k == 0 {
			scale = math.Sqrt(1 / float64(m))
		}
		for j := 0; j < m; j++ {
			d.phi[j*m+k] = scale * math.Cos(math.Pi*float64(k*(2*j+1))/float64(2*m))
		}
		// 4·sin²(πk/2m) is 2 − 2cos(πk/m) without the cancellation at
		// small k.
		sn := math.Sin(math.Pi * float64(k) / float64(2*m))
		d.mu[k] = 4 * sn * sn
	}
	return d
}

// basis is the 2-D DCT-II of a Rows × Cols field stored row-major, the
// tensor product of one DCT per axis. Mode (p, q) has index p*Cols + q.
// The transforms are dense matrix products, O(Rows·Cols·(Rows+Cols)).
type basis struct {
	rows, cols dct
}

func newBasis(rows, cols int) basis {
	return basis{rows: newDCT(rows), cols: newDCT(cols)}
}

// forward writes the modal coefficients x̂ = Φ_Rᵀ·x·Φ_C into dst, using
// tmp as scratch. All three slices have length Rows·Cols.
func (b *basis) forward(dst, x, tmp []float64) {
	R, C := b.rows.m, b.cols.m
	pr, pc := b.rows.phi, b.cols.phi
	for r := 0; r < R; r++ { // tmp = x·Φ_C
		tr := tmp[r*C : (r+1)*C]
		clear(tr)
		for c, v := range x[r*C : (r+1)*C] {
			for q, f := range pc[c*C : (c+1)*C] {
				tr[q] += v * f
			}
		}
	}
	for p := 0; p < R; p++ { // dst = Φ_Rᵀ·tmp
		dp := dst[p*C : (p+1)*C]
		clear(dp)
		for r := 0; r < R; r++ {
			f := pr[r*R+p]
			for q, v := range tmp[r*C : (r+1)*C] {
				dp[q] += f * v
			}
		}
	}
}

// inverse writes the field x = Φ_R·x̂·Φ_Cᵀ + offset into dst, using tmp
// as scratch. All three slices have length Rows·Cols.
func (b *basis) inverse(dst, xh, tmp []float64, offset float64) {
	R, C := b.rows.m, b.cols.m
	pr, pc := b.rows.phi, b.cols.phi
	for r := 0; r < R; r++ { // tmp = Φ_R·x̂
		tr := tmp[r*C : (r+1)*C]
		clear(tr)
		for p, f := range pr[r*R : (r+1)*R] {
			for q, v := range xh[p*C : (p+1)*C] {
				tr[q] += f * v
			}
		}
	}
	for r := 0; r < R; r++ { // dst = tmp·Φ_Cᵀ + offset
		tr := tmp[r*C : (r+1)*C]
		for c := 0; c < C; c++ {
			sum := 0.0
			for q, f := range pc[c*C : (c+1)*C] {
				sum += tr[q] * f
			}
			dst[r*C+c] = sum + offset
		}
	}
}

// lambda returns mode k's lateral eigenvalue in every layer:
// λ_l = gV_l·μ_R(p) + gH_l·μ_C(q) for k = p*Cols + q.
func (b *basis) lambda(s *stack, k int) [numLayers]float64 {
	p, q := k/b.cols.m, k%b.cols.m
	var lam [numLayers]float64
	for l := range lam {
		lam[l] = s.gV[l]*b.rows.mu[p] + s.gH[l]*b.cols.mu[q]
	}
	return lam
}

// modalField is one network state in DCT coordinates plus the scratch its
// transforms need. over holds the temperature over ambient, laid out like
// the node vector: the die, spreader and sink blocks of nCores modes each.
// In over-ambient coordinates the ambient source term vanishes.
type modalField struct {
	over []float64 // 3·nCores
	pHat []float64 // transformed power
	tmp  []float64 // transform scratch
}

func newModalField(n int) modalField {
	return modalField{over: make([]float64, numLayers*n), pHat: make([]float64, n), tmp: make([]float64, n)}
}

// layer returns the modal block of layer l.
func (f *modalField) layer(l int) []float64 {
	n := len(f.pHat)
	return f.over[l*n : (l+1)*n]
}
