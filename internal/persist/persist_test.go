package persist

import (
	"bytes"
	"testing"

	"github.com/kit-ces/hayat/internal/baseline"
	"github.com/kit-ces/hayat/internal/sim"
	"github.com/kit-ces/hayat/internal/testutil"
)

func testResult(t *testing.T) *sim.Result {
	t.Helper()
	fx := testutil.NewFixture(t, 1)
	cfg := sim.DefaultConfig()
	cfg.Years = 0.5
	cfg.WindowSeconds = 1.0
	pol, err := baseline.New(baseline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(cfg, pol, fx.Chip, fx.Thermal, fx.Power, fx.Predictor, fx.Table)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultRoundTrip(t *testing.T) {
	res := testResult(t)
	var buf bytes.Buffer
	if err := SaveResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	rec, err := LoadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy != res.Policy || rec.ChipSeed != res.ChipSeed {
		t.Fatalf("meta mismatch: %+v", rec)
	}
	if len(rec.Epochs) != len(res.Records) {
		t.Fatalf("epoch count %d vs %d", len(rec.Epochs), len(res.Records))
	}
	for i, e := range rec.Epochs {
		r := res.Records[i]
		if e.AvgFMax != r.AvgFMax || e.DTMEvents != r.DTMEvents || e.YearsElapsed != r.YearsElapsed {
			t.Fatalf("epoch %d mismatch", i)
		}
	}
	if rec.Migrations != res.TotalDTM.Migrations || rec.Throttles != res.TotalDTM.Throttles {
		t.Fatal("DTM totals mismatch")
	}
}

func TestResultValidation(t *testing.T) {
	res := testResult(t)
	rec := NewResultRecord(res)
	cases := []func(*ResultRecord){
		func(r *ResultRecord) { r.Version = 0 },
		func(r *ResultRecord) { r.Policy = "" },
		func(r *ResultRecord) { r.FinalFMax = r.FinalFMax[:1] },
		func(r *ResultRecord) { r.Epochs = nil },
		func(r *ResultRecord) { r.Epochs[1].YearsElapsed = 0 },
	}
	for i, mut := range cases {
		bad := rec
		bad.FinalFMax = append([]float64(nil), rec.FinalFMax...)
		bad.Epochs = append([]EpochRecord(nil), rec.Epochs...)
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
