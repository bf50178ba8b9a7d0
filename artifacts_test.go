package hayat

import "testing"

// The cache keeps per-chip artifacts only for the chipCapacity most
// recently used chips: a service that sees a new chip seed per request
// must not hold every chip it ever built.
func TestArtifactCacheBoundsPerChipEntries(t *testing.T) {
	cache := NewArtifactCache()
	sys, err := NewSystemWith(tinyConfig(), cache)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := sys.NewChip(0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 4*chipCapacity; seed++ {
		if _, err := sys.NewChip(seed); err != nil {
			t.Fatal(err)
		}
		if seed%8 == 0 {
			// Keep chip 0 recently used: it must survive the churn.
			if _, err := sys.NewChip(0); err != nil {
				t.Fatal(err)
			}
		}
		if st := cache.Stats(); st.Predictors > chipCapacity || st.AgingTables > chipCapacity {
			t.Fatalf("after %d chips the cache holds %d predictors and %d aging tables, capacity %d",
				seed+1, st.Predictors, st.AgingTables, chipCapacity)
		}
	}

	// Reusing a chip still held is a hit on both artifacts and hands back
	// the very same objects.
	before := cache.Stats()
	again, err := sys.NewChip(0)
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits+2 || after.Misses != before.Misses {
		t.Fatalf("reusing a held chip: stats %+v → %+v, want two hits and no miss", before, after)
	}
	if again.pred != hot.pred || again.tab != hot.tab {
		t.Fatal("a held chip's artifacts were rebuilt")
	}

	// The least recently used chips were evicted: asking for one again
	// rebuilds it.
	before = after
	if _, err := sys.NewChip(1); err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats(); after.Misses != before.Misses+2 {
		t.Fatalf("evicted chip: stats %+v → %+v, want two misses", before, after)
	}
}
