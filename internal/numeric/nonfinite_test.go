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
}
