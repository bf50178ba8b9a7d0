package numeric

import (
	"math"
	"testing"
)

func TestVectorHelpers(t *testing.T) {
	v := []float64{1, -2, 3}
	if got := Dot(v, v); got != 14 {
		t.Errorf("Dot = %v, want 14", got)
	}
	if got := Norm2(v); !almostEqual(got, math.Sqrt(14), 1e-14) {
		t.Errorf("Norm2 = %v", got)
	}
	if got := NormInf(v); got != 3 {
		t.Errorf("NormInf = %v, want 3", got)
	}
	if got := Mean(v); !almostEqual(got, 2.0/3.0, 1e-14) {
		t.Errorf("Mean = %v", got)
	}
	min, max := MinMax(v)
	if min != -2 || max != 3 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
	dst := AXPY(make([]float64, 3), 2, v, []float64{1, 1, 1})
	want := []float64{3, -3, 7}
	for i := range dst {
		if dst[i] != want[i] {
			t.Errorf("AXPY[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMeanEmptyAndStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if StdDev(nil) != 0 {
		t.Error("StdDev(nil) should be 0")
	}
	// StdDev of constant vector is 0.
	if got := StdDev([]float64{5, 5, 5}); got != 0 {
		t.Errorf("StdDev(const) = %v", got)
	}
	// Known value: population stddev of {2, 4} is 1.
	if got := StdDev([]float64{2, 4}); !almostEqual(got, 1, 1e-14) {
		t.Errorf("StdDev({2,4}) = %v, want 1", got)
	}
}
