package hayat

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/kit-ces/hayat/internal/metrics"
	"github.com/kit-ces/hayat/internal/persist"
	"github.com/kit-ces/hayat/internal/sim"
)

// PopulationResult aggregates one policy's lifetime results over a chip
// population — the "25 different chips" of Figs. 7–11.
type PopulationResult struct {
	Policy       string
	DarkFraction float64
	Chips        int
	Results      []*LifetimeResult

	// TotalDTMEvents across the population (Fig. 7's quantity).
	TotalDTMEvents int
	// MeanTempOverAmbient is the population mean lifetime-average
	// temperature rise over ambient in Kelvin (Fig. 8).
	MeanTempOverAmbient float64
	// ChipFMaxAging is the mean degradation of the single fastest core's
	// frequency in Hz over the lifetime (Fig. 9).
	ChipFMaxAging float64
	// AvgFMaxAging is the mean degradation of the chip-average frequency
	// in Hz over the lifetime (Fig. 10).
	AvgFMaxAging float64
	// Years/AvgFMaxSeries trace the population-average frequency over the
	// lifetime (Fig. 11 right).
	Years         []float64
	AvgFMaxSeries []float64

	summary metrics.Summary
}

// RunPopulation simulates `chips` dies (seeds baseSeed, baseSeed+1, …)
// under the given policy and aggregates the results. Chips are
// independent, so they run on parallel workers (up to GOMAXPROCS); the
// aggregated result is deterministic regardless of scheduling because
// results are collected in seed order.
func (s *System) RunPopulation(baseSeed int64, chips int, p Policy) (*PopulationResult, error) {
	//lint:ignore ctxfirst compatibility wrapper: context-free callers get the uncancellable root by design
	return s.RunPopulationContext(context.Background(), baseSeed, chips, p, nil, nil)
}

// ChipResultStore persists per-chip lifetime results so an interrupted
// population run can resume without recomputing finished chips: Save is
// called with each completed chip's serialised result, Load is consulted
// before a chip is simulated. The stored blob is the chip's raw result
// JSON; it round-trips exactly, so a resumed population is byte-identical
// to an uninterrupted one. Implementations may be best-effort (a Load
// miss or swallowed Save just costs recomputation) but must be safe for
// concurrent use.
type ChipResultStore interface {
	Load(seed int64) ([]byte, bool)
	Save(seed int64, data []byte) error
}

// RunPopulationContext is RunPopulation with cooperative cancellation,
// progress reporting and resumption:
//
//   - every chip's lifetime run checks the context at epoch boundaries,
//     and the first error (or cancellation) aborts the chips still queued
//     or simulating. The returned error is the first one observed; on
//     cancellation it wraps ctx.Err().
//   - a non-nil progress is called after each chip completes with the
//     number of finished chips and the population size. It may be called
//     concurrently from worker goroutines; the done count is monotonically
//     increasing across calls.
//   - chips whose results a non-nil store already holds are restored
//     instead of simulated, and each simulated chip is saved to it.
func (s *System) RunPopulationContext(ctx context.Context, baseSeed int64, chips int, p Policy, progress func(done, total int), store ChipResultStore) (*PopulationResult, error) {
	if chips <= 0 {
		return nil, fmt.Errorf("hayat: population size must be positive, got %d", chips)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	pr := &PopulationResult{Policy: p.String(), DarkFraction: s.cfg.DarkFraction, Chips: chips}
	results := make([]*LifetimeResult, chips)
	var (
		firstErr  error
		errOnce   sync.Once
		doneCount atomic.Int64
	)
	// fail records the first error and cancels everything still running;
	// later failures (typically the cancellations it caused) are dropped.
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	//lint:ignore determinism worker count only changes which goroutine simulates a chip; every chip is seeded by index and results land in slot order
	workers := runtime.GOMAXPROCS(0)
	if workers > chips {
		workers = chips
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if runCtx.Err() != nil {
					continue // aborted: drain the queue without simulating
				}
				seed := baseSeed + int64(i)
				if res, ok := loadChipResult(store, seed, p); ok {
					results[i] = res
					if progress != nil {
						progress(int(doneCount.Add(1)), chips)
					}
					continue
				}
				chip, err := s.NewChip(seed)
				if err != nil {
					fail(err)
					continue
				}
				res, err := chip.RunLifetimeContext(runCtx, p)
				if err != nil {
					fail(err)
					continue
				}
				saveChipResult(store, seed, res)
				results[i] = res
				if progress != nil {
					progress(int(doneCount.Add(1)), chips)
				}
			}
		}()
	}
feed:
	for i := 0; i < chips; i++ {
		//lint:ignore determinism the race only decides whether a chip still starts before an abort; a successful run always feeds every chip, and an aborted run returns an error, never bytes
		select {
		case jobs <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	// A parent cancellation that fired before any chip failed still has
	// to surface as an error.
	errOnce.Do(func() { firstErr = ctx.Err() })
	if firstErr != nil {
		return nil, firstErr
	}

	var raw []*sim.Result
	for i := 0; i < chips; i++ {
		pr.Results = append(pr.Results, results[i])
		raw = append(raw, results[i].res)
	}
	sum, err := metrics.Summarize(raw, s.Ambient(), 21)
	if err != nil {
		return nil, err
	}
	pr.summary = sum
	pr.TotalDTMEvents = sum.TotalDTMEvents
	pr.MeanTempOverAmbient = sum.MeanTempOverAmbient
	pr.ChipFMaxAging = sum.ChipFMaxAgingRate
	pr.AvgFMaxAging = sum.AvgFMaxAgingRate
	pr.Years = append([]float64(nil), sum.Years...)
	pr.AvgFMaxSeries = append([]float64(nil), sum.AvgFMaxSeries...)
	return pr, nil
}

// loadChipResult restores a persisted chip result, rejecting blobs that
// fail decodeChipBlob (a stale store never corrupts the population).
func loadChipResult(store ChipResultStore, seed int64, p Policy) (*LifetimeResult, bool) {
	if store == nil {
		return nil, false
	}
	data, ok := store.Load(seed)
	if !ok {
		return nil, false
	}
	res, err := decodeChipBlob(data, seed, p.String())
	if err != nil {
		return nil, false
	}
	return wrapResult(res), true
}

// saveChipResult persists a finished chip result; failures are dropped
// (the store is an optimisation, not a correctness dependency).
func saveChipResult(store ChipResultStore, seed int64, res *LifetimeResult) {
	if store == nil {
		return
	}
	data, err := json.Marshal(res.res)
	if err != nil {
		return
	}
	_ = store.Save(seed, data)
}

// ChipJSON serialises the chip's raw simulation result — the exact blob a
// ChipResultStore holds and ValidateChipJSON accepts. It is the canonical
// result encoding of a single-chip ("chip" kind) service job, which is
// how population chips fan out across hayatd peers: the bytes a peer
// returns feed the coordinator's store and round-trip exactly, so a
// distributed population is byte-identical to a local one.
func (r *LifetimeResult) ChipJSON() ([]byte, error) {
	if r.res == nil {
		return nil, fmt.Errorf("hayat: result carries no raw simulation data")
	}
	return json.Marshal(r.res)
}

// ValidateChipJSON checks that data is a usable chip blob for the given
// seed and canonical policy name — the same acceptance rule a resuming
// population run applies, exported so a node can vet bytes fetched from
// a peer before trusting them.
func ValidateChipJSON(data []byte, seed int64, policy string) error {
	_, err := decodeChipBlob(data, seed, policy)
	return err
}

// decodeChipBlob decodes a chip blob and applies the acceptance rule: it
// must be for this seed and policy and carry epoch records.
func decodeChipBlob(data []byte, seed int64, policy string) (*sim.Result, error) {
	var res sim.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("hayat: chip blob: %w", err)
	}
	if res.ChipSeed != seed {
		return nil, fmt.Errorf("hayat: chip blob is for seed %d, want %d", res.ChipSeed, seed)
	}
	if res.Policy != policy {
		return nil, fmt.Errorf("hayat: chip blob is for policy %q, want %q", res.Policy, policy)
	}
	if len(res.Records) == 0 {
		return nil, fmt.Errorf("hayat: chip blob has no epoch records")
	}
	return &res, nil
}

// Comparison holds Hayat-vs-baseline ratios; values below 1 favour Hayat
// (these are the normalised bars of Figs. 7–10).
type Comparison struct {
	DarkFraction         float64
	DTMEventsRatio       float64
	TempOverAmbientRatio float64
	ChipFMaxAgingRatio   float64
	AvgFMaxAgingRatio    float64
}

// Compare normalises a Hayat population against its VAA counterpart.
func Compare(hayatRes, vaaRes *PopulationResult) (Comparison, error) {
	c, err := metrics.Compare(hayatRes.summary, vaaRes.summary)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		DarkFraction:         c.DarkFraction,
		DTMEventsRatio:       c.DTMEventsRatio,
		TempOverAmbientRatio: c.TempOverAmbientRatio,
		ChipFMaxAgingRatio:   c.ChipFMaxAgingRatio,
		AvgFMaxAgingRatio:    c.AvgFMaxAgingRatio,
	}, nil
}

// LifetimeExtension computes Fig. 11's headline number: by how many years
// the candidate population outlives the baseline at a required lifetime —
// the baseline's average frequency after requiredYears defines end-of-life,
// and the returned extension is how much later the candidate reaches it.
func LifetimeExtension(candidate, baselineRes *PopulationResult, requiredYears float64) (extensionYears, thresholdHz float64) {
	return metrics.LifetimeExtension(candidate.summary, baselineRes.summary, requiredYears)
}

// WriteJSON serialises the full lifetime result (per-core arrays and every
// epoch record) as indented JSON.
func (r *LifetimeResult) WriteJSON(w io.Writer) error {
	return persist.SaveResult(w, r.res)
}

// WriteJSON serialises the population result — the aggregates of
// Figs. 7–11 plus every per-chip lifetime record — as indented JSON.
func (pr *PopulationResult) WriteJSON(w io.Writer) error {
	raw := make([]*sim.Result, len(pr.Results))
	for i, r := range pr.Results {
		raw[i] = r.res
	}
	var baseSeed int64
	if len(raw) > 0 {
		baseSeed = raw[0].ChipSeed
	}
	return persist.SavePopulation(w, persist.NewPopulationRecord(baseSeed, raw, pr.summary))
}
