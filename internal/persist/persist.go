// Package persist serialises lifetime-simulation results and population
// outcomes to JSON so experiment campaigns can be archived, diffed and
// post-processed outside the simulator (the hayat results' WriteJSON,
// cmd/hayatsim -json). It is also hayatd's one durable-file layer: the
// only package that knows the CRC-framed format (frame.go) and its
// durability steps — atomic replace, fsync, directory fsync, line replay
// and quarantine — for the job journal and the audit log (Log) and for
// result files and checkpoints (WriteFramed, ReadFramed).
package persist

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/kit-ces/hayat/internal/metrics"
	"github.com/kit-ces/hayat/internal/sim"
)

// FormatVersion is embedded in every artefact so future readers can
// detect incompatible layouts.
const FormatVersion = 1

// EpochRecord mirrors sim.EpochRecord with JSON tags.
type EpochRecord struct {
	Epoch        int     `json:"epoch"`
	YearsElapsed float64 `json:"years"`
	AvgHealth    float64 `json:"avg_health"`
	MinHealth    float64 `json:"min_health"`
	AvgFMax      float64 `json:"avg_fmax_hz"`
	MaxFMax      float64 `json:"max_fmax_hz"`
	AvgTemp      float64 `json:"avg_temp_k"`
	PeakTemp     float64 `json:"peak_temp_k"`
	DTMEvents    int     `json:"dtm_events"`
	Mapped       int     `json:"mapped"`
	Unmapped     int     `json:"unmapped"`
	AvgIPS       float64 `json:"avg_ips"`
}

// ResultRecord is the serialisable lifetime result.
type ResultRecord struct {
	Version      int           `json:"version"`
	Policy       string        `json:"policy"`
	ChipSeed     int64         `json:"chip_seed"`
	DarkFraction float64       `json:"dark_fraction"`
	Years        float64       `json:"years"`
	EpochYears   float64       `json:"epoch_years"`
	InitialFMax  []float64     `json:"initial_fmax_hz"`
	FinalFMax    []float64     `json:"final_fmax_hz"`
	FinalHealth  []float64     `json:"final_health"`
	Migrations   int           `json:"dtm_migrations"`
	Throttles    int           `json:"dtm_throttles"`
	Epochs       []EpochRecord `json:"epochs"`
}

// NewResultRecord captures a simulation result.
func NewResultRecord(res *sim.Result) ResultRecord {
	rec := ResultRecord{
		Version:      FormatVersion,
		Policy:       res.Policy,
		ChipSeed:     res.ChipSeed,
		DarkFraction: res.Config.DarkFraction,
		Years:        res.Config.Years,
		EpochYears:   res.Config.EpochYears,
		InitialFMax:  append([]float64(nil), res.InitialFMax...),
		FinalFMax:    append([]float64(nil), res.FinalFMax...),
		FinalHealth:  append([]float64(nil), res.FinalHealth...),
		Migrations:   res.TotalDTM.Migrations,
		Throttles:    res.TotalDTM.Throttles,
	}
	for _, e := range res.Records {
		rec.Epochs = append(rec.Epochs, EpochRecord{
			Epoch: e.Epoch, YearsElapsed: e.YearsElapsed,
			AvgHealth: e.AvgHealth, MinHealth: e.MinHealth,
			AvgFMax: e.AvgFMax, MaxFMax: e.MaxFMax,
			AvgTemp: e.AvgTemp, PeakTemp: e.PeakTemp,
			DTMEvents: e.DTMEvents, Mapped: e.Mapped, Unmapped: e.Unmapped,
			AvgIPS: e.AvgIPS,
		})
	}
	return rec
}

// SaveResult writes the result as indented JSON.
func SaveResult(w io.Writer, res *sim.Result) error {
	return writeJSON(w, NewResultRecord(res))
}

// LoadResult reads a result record and validates it.
func LoadResult(r io.Reader) (ResultRecord, error) {
	var rec ResultRecord
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return ResultRecord{}, fmt.Errorf("persist: decoding result: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return ResultRecord{}, err
	}
	return rec, nil
}

// Validate checks structural consistency.
func (r ResultRecord) Validate() error {
	if r.Version != FormatVersion {
		return fmt.Errorf("persist: result record version %d, want %d", r.Version, FormatVersion)
	}
	if r.Policy == "" {
		return fmt.Errorf("persist: result without policy name")
	}
	n := len(r.InitialFMax)
	if n == 0 || len(r.FinalFMax) != n || len(r.FinalHealth) != n {
		return fmt.Errorf("persist: per-core arrays inconsistent")
	}
	if len(r.Epochs) == 0 {
		return fmt.Errorf("persist: result without epochs")
	}
	prev := 0.0
	for i, e := range r.Epochs {
		if e.YearsElapsed <= prev {
			return fmt.Errorf("persist: epoch %d years not increasing", i)
		}
		prev = e.YearsElapsed
	}
	return nil
}

// PopulationRecord is the serialisable outcome of a population run: the
// aggregate quantities of Figs. 7–11 plus the per-chip lifetime results
// (in seed order).
type PopulationRecord struct {
	Version             int            `json:"version"`
	Policy              string         `json:"policy"`
	DarkFraction        float64        `json:"dark_fraction"`
	BaseSeed            int64          `json:"base_seed"`
	Chips               int            `json:"chips"`
	TotalDTMEvents      int            `json:"total_dtm_events"`
	MeanTempOverAmbient float64        `json:"mean_temp_over_ambient_k"`
	ChipFMaxAging       float64        `json:"chip_fmax_aging_hz"`
	AvgFMaxAging        float64        `json:"avg_fmax_aging_hz"`
	Years               []float64      `json:"years"`
	AvgFMaxSeries       []float64      `json:"avg_fmax_series_hz"`
	Results             []ResultRecord `json:"results"`
}

// NewPopulationRecord captures a population run from its raw per-chip
// results and their aggregate summary.
func NewPopulationRecord(baseSeed int64, raw []*sim.Result, sum metrics.Summary) PopulationRecord {
	rec := PopulationRecord{
		Version:             FormatVersion,
		Policy:              sum.Policy,
		DarkFraction:        sum.DarkFraction,
		BaseSeed:            baseSeed,
		Chips:               sum.Chips,
		TotalDTMEvents:      sum.TotalDTMEvents,
		MeanTempOverAmbient: sum.MeanTempOverAmbient,
		ChipFMaxAging:       sum.ChipFMaxAgingRate,
		AvgFMaxAging:        sum.AvgFMaxAgingRate,
		Years:               append([]float64(nil), sum.Years...),
		AvgFMaxSeries:       append([]float64(nil), sum.AvgFMaxSeries...),
	}
	for _, r := range raw {
		rec.Results = append(rec.Results, NewResultRecord(r))
	}
	return rec
}

// SavePopulation writes the population record as indented JSON.
func SavePopulation(w io.Writer, rec PopulationRecord) error {
	return writeJSON(w, rec)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("persist: encoding: %w", err)
	}
	return nil
}
