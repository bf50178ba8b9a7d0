package hayat

import (
	"sync"
	"testing"
)

// The cache keeps platforms only for the platformCapacity most recently
// used grids: hayatd admits every grid shape up to MaxCores, and must not
// hold a platform for each one it has ever served.
func TestArtifactCacheBoundsPlatforms(t *testing.T) {
	cache := NewArtifactCache()
	system := func(cols int) *System {
		t.Helper()
		cfg := tinyConfig()
		cfg.Rows, cfg.Cols = 1, cols
		sys, err := NewSystemWith(cfg, cache)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	hot := system(4)
	for cols := 5; cols < 5+3*platformCapacity; cols++ {
		system(cols)
		// Keep 1×4 recently used: it must survive the churn.
		if system(4).tm != hot.tm {
			t.Fatalf("after grid 1×%d the recently used 1×4 platform was rebuilt", cols)
		}
		if st := cache.Stats(); st.Platforms > platformCapacity {
			t.Fatalf("after grid 1×%d the cache holds %d platforms, capacity %d", cols, st.Platforms, platformCapacity)
		}
	}

	// The least recently used grids were evicted: asking for one again
	// rebuilds it, once.
	before := cache.Stats()
	system(5)
	if after := cache.Stats(); after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Fatalf("evicted grid: stats %+v → %+v, want one miss and no hit", before, after)
	}
}

// Systems built concurrently on one grid coalesce onto one platform
// build and share its thermal model.
func TestArtifactCacheCoalescesConcurrentBuilds(t *testing.T) {
	cache := NewArtifactCache()
	systems := make([]*System, 8)
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			systems[i], errs[i] = NewSystemWith(tinyConfig(), cache)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if systems[i].tm != systems[0].tm {
			t.Fatalf("system %d has its own thermal model", i)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != int64(len(systems)-1) || st.Platforms != 1 {
		t.Fatalf("stats %+v, want one miss, %d hits and one platform", st, len(systems)-1)
	}
}
