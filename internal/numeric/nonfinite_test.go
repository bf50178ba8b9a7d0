package numeric

import (
	"math"
	"testing"
)

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{0, -1, 1e300}) {
		t.Fatal("finite slice reported non-finite")
	}
	if AllFinite([]float64{0, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite slice reported finite")
	}
	if !AllFinite(nil) {
		t.Fatal("empty slice should be finite")
	}
	// The extremes of the finite range, both signs and both zeros.
	for _, x := range []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Copysign(0, -1)} {
		if !AllFinite([]float64{1, x}) {
			t.Fatalf("%v reported non-finite", x)
		}
	}
	if AllFinite([]float64{1, math.Inf(-1)}) || AllFinite([]float64{math.Inf(1), 1}) {
		t.Fatal("an infinity reported finite")
	}
}
