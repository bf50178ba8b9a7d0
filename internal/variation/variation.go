// Package variation implements the manufacturing process-variation model of
// Section III of the paper (following Xiong/Zolotov/He [25] and the
// dark-silicon "cherry-picking" setup of [26]).
//
// The chip is overlaid with an N_grid×N_grid lattice of grid points; each
// point carries a process parameter ϑ(u,v), modelled as a Gaussian random
// variable with mean μ_ϑ, standard deviation σ_ϑ and exponentially decaying
// spatial correlation ρ(d) = exp(−d/L_corr). A whole chip sample is drawn
// by colouring white Gaussian noise with the Cholesky factor of the grid
// covariance matrix.
//
// The parameter ϑ acts as a normalised threshold-voltage multiplier:
//
//   - Frequency (Eq. 1): f_i = α · min over the core's critical-path grid
//     points of (1/ϑ) — a core is only as fast as its slowest grid point.
//   - Leakage (Eq. 2): each grid point contributes leakage scaled by
//     exp(−Vth·ϑ/(n·V_T)), so low-Vth (fast) regions leak exponentially
//     more, and leakage grows with temperature through the thermal voltage
//     V_T = kT/q.
//
// With the default parameters the generated chip populations exhibit the
// ~30–35 % core-to-core frequency variation the paper reports at 1.13 V,
// 3–4 GHz.
package variation

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/numeric"
)

// Physical constants.
const (
	BoltzmannOverQ = 8.617333262e-5 // k/q in V/K: V_T = (k/q)·T
)

// Model holds the statistical and electrical parameters of the variation
// model. The zero value is not usable; start from DefaultModel.
type Model struct {
	// GridPerCore is the number of grid points per core edge; each core
	// covers GridPerCore² points.
	GridPerCore int
	// Mean and Sigma are μ_ϑ and σ_ϑ of the process parameter.
	Mean, Sigma float64
	// CorrLength is the spatial correlation length L_corr in metres:
	// ρ(d) = exp(−d/L_corr).
	CorrLength float64
	// NominalFreq is the technology constant α of Eq. 1 in Hz: the
	// frequency of a core whose slowest grid point sits exactly at μ_ϑ.
	NominalFreq float64
	// Vdd is the chip-level supply voltage in Volts.
	Vdd float64
	// VthNominal is the nominal threshold voltage in Volts.
	VthNominal float64
	// SubthresholdN is the subthreshold slope factor n.
	SubthresholdN float64
	// LeakageKappa is the effective sensitivity of leakage to the
	// normalised process parameter: leak ∝ exp(κ·(μ_ϑ − ϑ)). The raw
	// physical coefficient Vth/(n·V_T) ≈ 7 would predict >10× leakage
	// tails that no shipping die exhibits (binning removes them) and that
	// drive the thermal model into runaway; κ ≈ 3 reproduces the 2–3×
	// chip-to-chip leakage spread reported for real processes.
	LeakageKappa float64
	// LeakFactorCap clamps the per-core leakage multiplier (binning).
	LeakFactorCap float64
	// TRef is the reference temperature (K) at which LeakFactor is
	// normalised to a mean of ~1 for a nominal chip.
	TRef float64
}

// DefaultModel returns the paper's experimental parameters: 3 GHz nominal
// frequency at Vdd = 1.13 V, with σ_ϑ tuned so chip populations show the
// reported ~30–35 % frequency variation.
func DefaultModel() Model {
	return Model{
		GridPerCore:   2,
		Mean:          1.0,
		Sigma:         0.105,
		CorrLength:    3.4e-3, // ≈ two core pitches
		NominalFreq:   3.0e9,
		Vdd:           1.13,
		VthNominal:    0.30,
		SubthresholdN: 1.5,
		LeakageKappa:  3.0,
		LeakFactorCap: 4.0,
		TRef:          318.15, // 45 °C, the thermal model's ambient
	}
}

// Chip is one sampled die: the grid field plus the derived per-core
// electrical figures. All slices are indexed by core (row-major on the
// floorplan) except Theta, which is row-major on the finer grid.
type Chip struct {
	Seed      int64
	Model     Model
	Floorplan *floorplan.Floorplan

	// GridRows, GridCols describe the ϑ lattice.
	GridRows, GridCols int
	// Theta holds ϑ(u,v), row-major.
	Theta []float64

	// FMax0 is the initial (year-0) variation-dependent maximum safe
	// frequency per core in Hz (Eq. 1).
	FMax0 []float64
	// LeakFactor is the per-core leakage multiplier relative to a nominal
	// core at TRef (the variation part of Eq. 2; the temperature part is
	// applied by internal/power at run time).
	LeakFactor []float64
	// MeanTheta is the per-core average of ϑ, used by diagnostics.
	MeanTheta []float64
}

// Generator draws chips from a Model on a fixed floorplan. The covariance
// Cholesky factor is computed once per (Model, Floorplan) pair and shared
// by every chip of a population.
type Generator struct {
	model Model
	fp    *floorplan.Floorplan
	chol  *numeric.Cholesky
	// gx, gy are grid-point physical coordinates.
	gridRows, gridCols int
}

// NewGenerator validates the model and precomputes the Cholesky factor of
// the grid covariance matrix.
func NewGenerator(m Model, fp *floorplan.Floorplan) (*Generator, error) {
	if m.GridPerCore <= 0 {
		return nil, fmt.Errorf("variation: GridPerCore must be positive, got %d", m.GridPerCore)
	}
	if m.Sigma < 0 {
		return nil, fmt.Errorf("variation: Sigma must be non-negative, got %v", m.Sigma)
	}
	if m.CorrLength <= 0 {
		return nil, fmt.Errorf("variation: CorrLength must be positive, got %v", m.CorrLength)
	}
	if m.NominalFreq <= 0 {
		return nil, fmt.Errorf("variation: NominalFreq must be positive, got %v", m.NominalFreq)
	}
	if m.LeakageKappa < 0 {
		return nil, fmt.Errorf("variation: LeakageKappa must be non-negative, got %v", m.LeakageKappa)
	}
	g := &Generator{
		model:    m,
		fp:       fp,
		gridRows: fp.Rows * m.GridPerCore,
		gridCols: fp.Cols * m.GridPerCore,
	}
	n := g.gridRows * g.gridCols
	dx := fp.CoreWidth / float64(m.GridPerCore)
	dy := fp.CoreHeight / float64(m.GridPerCore)
	cov := numeric.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		xi := (float64(i%g.gridCols) + 0.5) * dx
		yi := (float64(i/g.gridCols) + 0.5) * dy
		for j := 0; j <= i; j++ {
			xj := (float64(j%g.gridCols) + 0.5) * dx
			yj := (float64(j/g.gridCols) + 0.5) * dy
			d := math.Hypot(xi-xj, yi-yj)
			v := m.Sigma * m.Sigma * math.Exp(-d/m.CorrLength)
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	// Small diagonal jitter keeps the matrix numerically SPD for long
	// correlation lengths.
	for i := 0; i < n; i++ {
		cov.Add(i, i, 1e-10+1e-6*m.Sigma*m.Sigma)
	}
	chol, err := numeric.FactorCholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("variation: covariance not SPD: %w", err)
	}
	g.chol = chol
	return g, nil
}

// Chip draws one die using the given seed. The same (model, floorplan,
// seed) triple always produces the identical chip.
func (g *Generator) Chip(seed int64) *Chip {
	rng := rand.New(rand.NewSource(seed))
	n := g.gridRows * g.gridCols
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	theta := make([]float64, n)
	g.chol.MulVec(theta, z)
	for i := range theta {
		theta[i] += g.model.Mean
		// Guard against unphysical (non-positive) parameter draws far in
		// the tail; clamp at 10 σ-equivalents below mean.
		if min := g.model.Mean - 10*g.model.Sigma; theta[i] < min || theta[i] < 0.05 {
			theta[i] = math.Max(min, 0.05)
		}
	}
	c := &Chip{
		Seed:       seed,
		Model:      g.model,
		Floorplan:  g.fp,
		GridRows:   g.gridRows,
		GridCols:   g.gridCols,
		Theta:      theta,
		FMax0:      make([]float64, g.fp.N()),
		LeakFactor: make([]float64, g.fp.N()),
		MeanTheta:  make([]float64, g.fp.N()),
	}
	g.derivePerCore(c)
	return c
}

// derivePerCore computes FMax0 (Eq. 1) and LeakFactor (Eq. 2) from the
// grid field.
func (g *Generator) derivePerCore(c *Chip) {
	m := g.model
	for core := 0; core < g.fp.N(); core++ {
		row, col := g.fp.Position(core)
		maxTheta := 0.0
		sumTheta := 0.0
		sumLeak := 0.0
		count := 0
		for gr := row * m.GridPerCore; gr < (row+1)*m.GridPerCore; gr++ {
			for gc := col * m.GridPerCore; gc < (col+1)*m.GridPerCore; gc++ {
				th := c.Theta[gr*g.gridCols+gc]
				if th > maxTheta {
					maxTheta = th
				}
				sumTheta += th
				// Eq. 2's variation factor with the effective sensitivity
				// κ (see Model.LeakageKappa): low-ϑ (fast) regions leak
				// exponentially more.
				sumLeak += math.Exp(m.LeakageKappa * (m.Mean - th))
				count++
			}
		}
		// Eq. 1: f = α · min(1/ϑ) = α / max(ϑ) over critical-path points.
		c.FMax0[core] = m.NominalFreq * m.Mean / maxTheta
		c.MeanTheta[core] = sumTheta / float64(count)
		lf := sumLeak / float64(count)
		if m.LeakFactorCap > 0 && lf > m.LeakFactorCap {
			lf = m.LeakFactorCap
		}
		c.LeakFactor[core] = lf
	}
}

// Population draws count chips with consecutive seeds baseSeed,
// baseSeed+1, … (one "manufactured lot").
func (g *Generator) Population(baseSeed int64, count int) []*Chip {
	chips := make([]*Chip, count)
	for i := range chips {
		chips[i] = g.Chip(baseSeed + int64(i))
	}
	return chips
}

// FrequencySpread returns (f_max − f_min)/f_max across the chip's cores —
// the core-to-core frequency variation figure the paper quotes as 30–35 %.
func (c *Chip) FrequencySpread() float64 {
	min, max := numeric.MinMax(c.FMax0)
	if max == 0 {
		return 0
	}
	return (max - min) / max
}
