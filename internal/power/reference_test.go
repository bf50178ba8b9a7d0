package power

import (
	"math"
	"testing"

	"github.com/kit-ces/hayat/internal/variation"
)

// refLeakageTempFactor and refCoreLeakage are Model.LeakageTempFactor and
// Model.CoreLeakage as they were before the reference term moved into
// Leakage, verbatim, as the test references: two Exp per call.
func refLeakageTempFactor(m Model, T float64) float64 {
	if T <= 0 {
		return 0
	}
	vt := variation.BoltzmannOverQ * T
	vtRef := variation.BoltzmannOverQ * m.TRef
	return math.Exp(-m.VthNominal/(m.SubthresholdN*vt)) /
		math.Exp(-m.VthNominal/(m.SubthresholdN*vtRef))
}

func refCoreLeakage(m Model, leakFactor, T float64, on bool) float64 {
	if !on {
		return m.GatedLeakage
	}
	return m.NominalLeakage * leakFactor * refLeakageTempFactor(m, T)
}

// TestLeakageMatchesTwoExpReference compares Leakage with the two-Exp
// reference bitwise over a 300–420 K sweep, for the default model and for
// one whose exported fields were edited after DefaultModel returned: the
// Leakage built afterwards must see the edits.
func TestLeakageMatchesTwoExpReference(t *testing.T) {
	edited := DefaultModel()
	edited.VthNominal, edited.SubthresholdN, edited.TRef = 0.27, 1.4, 330
	for _, m := range []Model{DefaultModel(), edited} {
		l := m.Leakage()
		for i := 0; i <= 12000; i++ {
			T := 300 + float64(i)*0.01
			if got, want := l.TempFactor(T), refLeakageTempFactor(m, T); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: TempFactor(%v) = %v, reference %v", m, T, got, want)
			}
			for _, lf := range []float64{0.7, 1, 1.3} {
				for _, on := range []bool{true, false} {
					if got, want := l.Core(lf, T, on), refCoreLeakage(m, lf, T, on); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%+v: Core(%v, %v, %v) = %v, reference %v", m, lf, T, on, got, want)
					}
				}
			}
		}
	}
}

// A Leakage copies its Model: edits made after it was built do not reach
// it, so it can never mix an old reference term with new fields.
func TestLeakageCopiesModel(t *testing.T) {
	m := DefaultModel()
	l := m.Leakage()
	before := l.TempFactor(360)
	m.VthNominal = 0.4
	if got := l.TempFactor(360); got != before {
		t.Fatalf("TempFactor moved from %v to %v after the Model was edited", before, got)
	}
}
