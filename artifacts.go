package hayat

import (
	"sync"

	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/variation"
)

// ArtifactCache shares the expensive per-platform artifacts across
// Systems on the same grid: the floorplan, the thermal model with its
// modal operators and response matrix, and the variation generator with
// its Cholesky factor. All are immutable after construction and safe for
// concurrent use; concurrent requests for one grid coalesce onto one
// build (singleflight). A nil *ArtifactCache is valid and disables
// sharing.
//
// A chip's own artifacts, its learned predictor and its aging table, are
// not cached: System.NewChip builds both in about a millisecond.
type ArtifactCache struct {
	mu           sync.Mutex
	platforms    map[gridKey]*platformEntry
	order        []gridKey // least recently used first
	hits, misses int64
}

// platformCapacity bounds the platforms the cache keeps to the most
// recently used grids. Every in-tree caller uses one grid per cache; 4
// caps hayatd's worst case near 4 × 150 MB (a 32×32 platform), where an
// unbounded cache would keep one platform per grid shape it admitted.
const platformCapacity = 4

// NewArtifactCache returns an empty cache. The zero value is also ready
// to use.
func NewArtifactCache() *ArtifactCache { return &ArtifactCache{} }

// ArtifactStats counts cache outcomes: a hit is a lookup that found an
// existing (possibly still-building) platform, a miss triggered a build.
type ArtifactStats struct {
	Hits, Misses int64
	Platforms    int
}

// Stats snapshots the cache counters.
func (c *ArtifactCache) Stats() ArtifactStats {
	if c == nil {
		return ArtifactStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ArtifactStats{Hits: c.hits, Misses: c.misses, Platforms: len(c.platforms)}
}

type gridKey struct{ rows, cols int }

// platform bundles the chip-independent models a System is built from.
type platform struct {
	fp  *floorplan.Floorplan
	tm  *thermal.Model
	gen *variation.Generator
}

// platformEntry is a singleflight slot: the first caller builds under the
// sync.Once, later callers block on it and share the outcome.
type platformEntry struct {
	once sync.Once
	pf   *platform
	err  error
}

// buildPlatform assembles the chip-independent models for a grid.
func buildPlatform(rows, cols int) (*platform, error) {
	fp := floorplan.New(rows, cols)
	fp.CoreWidth = floorplan.DefaultCoreWidth
	fp.CoreHeight = floorplan.DefaultCoreHeight
	tm, err := thermal.New(fp, thermal.DefaultConfig())
	if err != nil {
		return nil, err
	}
	gen, err := variation.NewGenerator(variation.DefaultModel(), fp)
	if err != nil {
		return nil, err
	}
	return &platform{fp: fp, tm: tm, gen: gen}, nil
}

// platform returns the shared platform for a grid, building it on first
// use. Safe on a nil cache.
func (c *ArtifactCache) platform(rows, cols int) (*platform, error) {
	if c == nil {
		return buildPlatform(rows, cols)
	}
	e := c.entry(gridKey{rows, cols})
	e.once.Do(func() { e.pf, e.err = buildPlatform(rows, cols) })
	return e.pf, e.err
}

// entry returns the slot for key, creating it on a miss, marks key as the
// most recently used and evicts the least recently used key once the
// cache outgrows platformCapacity. A caller still holding an evicted slot
// keeps using it; only the next lookup rebuilds.
func (c *ArtifactCache) entry(key gridKey) *platformEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.platforms[key]
	if ok {
		c.hits++
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	} else {
		c.misses++
		if c.platforms == nil {
			c.platforms = make(map[gridKey]*platformEntry)
		}
		e = &platformEntry{}
		c.platforms[key] = e
	}
	c.order = append(c.order, key)
	if len(c.order) > platformCapacity {
		delete(c.platforms, c.order[0])
		c.order = append(c.order[:0], c.order[1:]...)
	}
	return e
}
