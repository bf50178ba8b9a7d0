package thermpredict

import (
	"fmt"
	"math"

	"github.com/kit-ces/hayat/internal/power"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/variation"
)

// CompactPredictor is the memory-light variant of the online predictor:
// instead of the full N×N response matrix it learns a radial kernel —
// the average temperature rise per Watt as a function of Manhattan
// distance from the heated core. This is much closer to what [27]
// actually stores per application ("spatial thermal profiles"), at the
// cost of ignoring chip-edge effects; the exact Predictor quantifies
// that cost (see AccuracyVs and the ablation benchmark).
//
// Memory: O(diameter) floats instead of O(N²) — 15 values vs 4096 for
// the 8×8 chip.
type CompactPredictor struct {
	fp     floorplanInfo
	pm     power.Model
	chip   *variation.Chip
	amb    float64
	kernel []float64 // rise K/W by Manhattan distance

	// LeakageIterations as in Predictor.
	LeakageIterations int
}

// floorplanInfo caches what the compact predictor needs from the layout.
type floorplanInfo struct {
	rows, cols int
}

func (f floorplanInfo) n() int { return f.rows * f.cols }

func (f floorplanInfo) dist(a, b int) int {
	ra, ca := a/f.cols, a%f.cols
	rb, cb := b/f.cols, b%f.cols
	dr, dc := ra-rb, ca-cb
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// LearnCompact learns the radial kernel by averaging the exact per-core
// probe responses over all source positions.
func LearnCompact(tm *thermal.Model, pm power.Model, chip *variation.Chip) (*CompactPredictor, error) {
	exact, err := Learn(tm, pm, chip)
	if err != nil {
		return nil, err
	}
	fp := tm.Floorplan()
	info := floorplanInfo{rows: fp.Rows, cols: fp.Cols}
	n := info.n()
	maxDist := (fp.Rows - 1) + (fp.Cols - 1)
	sum := make([]float64, maxDist+1)
	cnt := make([]int, maxDist+1)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			d := info.dist(i, j)
			sum[d] += exact.ResponseAt(i, j)
			cnt[d]++
		}
	}
	kernel := make([]float64, maxDist+1)
	for d := range kernel {
		if cnt[d] == 0 {
			return nil, fmt.Errorf("thermpredict: no samples at distance %d", d)
		}
		kernel[d] = sum[d] / float64(cnt[d])
	}
	return &CompactPredictor{
		fp: info, pm: pm, chip: chip, amb: tm.Ambient(),
		kernel: kernel, LeakageIterations: 3,
	}, nil
}

// KernelSize returns the number of learned kernel bins.
func (p *CompactPredictor) KernelSize() int { return len(p.kernel) }

// Kernel returns the learned rise (K/W) at the given Manhattan distance
// (clamped to the last bin).
func (p *CompactPredictor) Kernel(dist int) float64 {
	if dist < 0 {
		dist = 0
	}
	if dist >= len(p.kernel) {
		dist = len(p.kernel) - 1
	}
	return p.kernel[dist]
}

// Predict mirrors Predictor.Predict on the radial kernel.
func (p *CompactPredictor) Predict(dst, pdyn []float64, on []bool) []float64 {
	n := p.fp.n()
	if len(pdyn) != n || len(on) != n {
		panic("thermpredict: compact Predict length mismatch")
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	total := make([]float64, n)
	for i := range total {
		total[i] = pdyn[i] + p.pm.CoreLeakage(p.chip.LeakFactor[i], p.amb, on[i])
	}
	p.superpose(dst, total)
	for it := 0; it < p.LeakageIterations; it++ {
		for i := range total {
			total[i] = pdyn[i] + p.pm.CoreLeakage(p.chip.LeakFactor[i], dst[i], on[i])
		}
		p.superpose(dst, total)
	}
	return dst
}

func (p *CompactPredictor) superpose(dst, total []float64) {
	n := p.fp.n()
	for i := 0; i < n; i++ {
		t := p.amb
		for j := 0; j < n; j++ {
			if total[j] == 0 {
				continue
			}
			t += p.Kernel(p.fp.dist(i, j)) * total[j]
		}
		dst[i] = t
	}
}

// AccuracyVs returns the maximum absolute temperature difference between
// the compact and exact predictors on the given load — the price of the
// radial approximation.
func (p *CompactPredictor) AccuracyVs(exact *Predictor, pdyn []float64, on []bool) float64 {
	a := p.Predict(nil, pdyn, on)
	b := exact.Predict(nil, nil, pdyn, on)
	// Seed from the first difference, not a 0.0 sentinel (the PR10
	// zero-sentinel bug class); correct regardless of the diffs' signs.
	max := math.Abs(a[0] - b[0])
	for i := 1; i < len(a); i++ {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
