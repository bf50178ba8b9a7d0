package numeric

import "testing"

func TestVectorHelpers(t *testing.T) {
	v := []float64{1, -2, 3}
	if got := Mean(v); !almostEqual(got, 2.0/3.0, 1e-14) {
		t.Errorf("Mean = %v", got)
	}
	min, max := MinMax(v)
	if min != -2 || max != 3 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
	if got := Fill(make([]float64, 2), 7); got[0] != 7 || got[1] != 7 {
		t.Errorf("Fill = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}
