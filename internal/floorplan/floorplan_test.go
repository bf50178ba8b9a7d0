package floorplan

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesPaperSetup(t *testing.T) {
	f := Default()
	if f.N() != 64 {
		t.Fatalf("N = %d, want 64", f.N())
	}
	if f.CoreWidth != 1.70e-3 || f.CoreHeight != 1.75e-3 {
		t.Fatalf("core dims = %v×%v", f.CoreWidth, f.CoreHeight)
	}
	// Core area 1.70×1.75 mm² = 2.975 mm².
	if a := f.CoreArea(); math.Abs(a-2.975e-6) > 1e-12 {
		t.Fatalf("CoreArea = %v", a)
	}
}

func TestIndexPositionRoundTrip(t *testing.T) {
	f := New(3, 5)
	for i := 0; i < f.N(); i++ {
		r, c := f.Position(i)
		if f.Index(r, c) != i {
			t.Fatalf("roundtrip failed for %d → (%d,%d)", i, r, c)
		}
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	f := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Index(2, 0)
}

func TestNeighborsCornersEdgesInterior(t *testing.T) {
	f := New(3, 3)
	cases := []struct {
		core int
		want int
	}{
		{f.Index(0, 0), 2}, // corner
		{f.Index(0, 1), 3}, // edge
		{f.Index(1, 1), 4}, // interior
	}
	for _, c := range cases {
		got := f.Neighbors(nil, c.core)
		if len(got) != c.want {
			t.Errorf("Neighbors(%d) = %v (len %d), want len %d", c.core, got, len(got), c.want)
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	f := New(4, 7)
	for i := 0; i < f.N(); i++ {
		for _, j := range f.Neighbors(nil, i) {
			back := f.Neighbors(nil, j)
			found := false
			for _, k := range back {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbour relation not symmetric: %d→%d", i, j)
			}
		}
	}
}

func TestDistances(t *testing.T) {
	f := Default()
	a, b := f.Index(0, 0), f.Index(2, 3)
	if d := f.ManhattanDistance(a, b); d != 5 {
		t.Fatalf("Manhattan = %d, want 5", d)
	}
	if d := f.ManhattanDistance(a, a); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestMaxOnCores(t *testing.T) {
	if got := MaxOnCores(64, 0.50); got != 32 {
		t.Fatalf("MaxOnCores(64, 0.5) = %d, want 32", got)
	}
	if got := MaxOnCores(64, 0.25); got != 48 {
		t.Fatalf("MaxOnCores(64, 0.25) = %d, want 48", got)
	}
	if got := MaxOnCores(64, 0); got != 64 {
		t.Fatalf("MaxOnCores(64, 0) = %d, want 64", got)
	}
	// The budget never drops below one core: 1×1 at 75 % dark would
	// floor to zero.
	if got := MaxOnCores(1, 0.75); got != 1 {
		t.Fatalf("MaxOnCores(1, 0.75) = %d, want 1", got)
	}
}

// Property: Manhattan distance is a metric (symmetry + triangle inequality).
func TestManhattanMetricProperty(t *testing.T) {
	f := Default()
	p := func(ai, bi, ci uint8) bool {
		a := int(ai) % f.N()
		b := int(bi) % f.N()
		c := int(ci) % f.N()
		dab := f.ManhattanDistance(a, b)
		dba := f.ManhattanDistance(b, a)
		dac := f.ManhattanDistance(a, c)
		dcb := f.ManhattanDistance(c, b)
		return dab == dba && dab <= dac+dcb
	}
	if err := quick.Check(p, nil); err != nil {
		t.Error(err)
	}
}
