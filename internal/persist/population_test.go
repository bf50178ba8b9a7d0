package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/kit-ces/hayat/internal/metrics"
	"github.com/kit-ces/hayat/internal/sim"
)

func testPopulation(t *testing.T) ([]*sim.Result, metrics.Summary) {
	t.Helper()
	raw := []*sim.Result{testResult(t)}
	sum, err := metrics.Summarize(raw, 318.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	return raw, sum
}

func TestPopulationRoundTrip(t *testing.T) {
	raw, sum := testPopulation(t)
	rec := NewPopulationRecord(1, raw, sum)
	var buf bytes.Buffer
	if err := SavePopulation(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPopulation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy != sum.Policy || got.Chips != 1 || got.BaseSeed != 1 {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if got.TotalDTMEvents != sum.TotalDTMEvents || got.AvgFMaxAging != sum.AvgFMaxAgingRate {
		t.Fatal("aggregate mismatch")
	}
	if len(got.Years) != len(sum.Years) || len(got.AvgFMaxSeries) != len(sum.AvgFMaxSeries) {
		t.Fatal("series length mismatch")
	}
	if len(got.Results) != 1 || got.Results[0].ChipSeed != raw[0].ChipSeed {
		t.Fatal("per-chip results mismatch")
	}
}

func TestPopulationValidation(t *testing.T) {
	raw, sum := testPopulation(t)
	good := NewPopulationRecord(1, raw, sum)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*PopulationRecord)
	}{
		{"version", func(r *PopulationRecord) { r.Version = 99 }},
		{"policy", func(r *PopulationRecord) { r.Policy = "" }},
		{"chips", func(r *PopulationRecord) { r.Chips = 2 }},
		{"series", func(r *PopulationRecord) { r.Years = r.Years[:1] }},
		{"result", func(r *PopulationRecord) { r.Results[0].Policy = "" }},
	}
	for _, c := range cases {
		rec := NewPopulationRecord(1, raw, sum)
		c.mut(&rec)
		if err := rec.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestLoadPopulationRejectsGarbage(t *testing.T) {
	if _, err := LoadPopulation(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON should error")
	}
	if _, err := LoadPopulation(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("empty record should fail validation")
	}
}

// LoadPopulation reads a population record and validates it: the
// round-trip reference for SavePopulation.
func LoadPopulation(r io.Reader) (PopulationRecord, error) {
	var rec PopulationRecord
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return PopulationRecord{}, fmt.Errorf("persist: decoding population: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return PopulationRecord{}, err
	}
	return rec, nil
}

// Validate checks the structural consistency a reader may rely on.
func (r PopulationRecord) Validate() error {
	if r.Version != FormatVersion {
		return fmt.Errorf("persist: population record version %d, want %d", r.Version, FormatVersion)
	}
	if r.Policy == "" {
		return fmt.Errorf("persist: population record without policy name")
	}
	if r.Chips <= 0 || len(r.Results) != r.Chips {
		return fmt.Errorf("persist: population record has %d results for %d chips", len(r.Results), r.Chips)
	}
	if len(r.Years) != len(r.AvgFMaxSeries) || len(r.Years) < 2 {
		return fmt.Errorf("persist: population series inconsistent (%d years, %d values)", len(r.Years), len(r.AvgFMaxSeries))
	}
	for i, res := range r.Results {
		if err := res.Validate(); err != nil {
			return fmt.Errorf("persist: population chip %d: %w", i, err)
		}
	}
	return nil
}
