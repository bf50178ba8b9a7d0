package hayat

import (
	"sync"
	"sync/atomic"

	"github.com/kit-ces/hayat/internal/aging"
	"github.com/kit-ces/hayat/internal/floorplan"
	"github.com/kit-ces/hayat/internal/thermal"
	"github.com/kit-ces/hayat/internal/thermpredict"
	"github.com/kit-ces/hayat/internal/variation"
)

// ArtifactCache shares the expensive per-platform and per-chip artifacts
// across Systems and Chips: the thermal model with its modal operators
// and response matrix, and the variation field's Cholesky factor (keyed by
// grid size), the learned thermal predictor (keyed by grid size and chip
// seed) and the offline 3D aging table (keyed by aging model and chip
// seed). All cached artifacts are immutable after construction and safe
// for concurrent use; identical concurrent requests coalesce onto one
// build (singleflight). A nil *ArtifactCache is valid and disables
// sharing.
//
// Per-chip entries are kept for the chipCapacity most recently used keys
// of each kind; a long-running service that sees a new chip seed per
// request would otherwise hold every chip it ever built.
type ArtifactCache struct {
	mu        sync.Mutex
	platforms lruMap[gridKey, *platform]
	preds     lruMap[predKey, *thermpredict.Predictor]
	tabs      lruMap[tabKey, *aging.Table3D]

	hits, misses atomic.Int64
}

// chipCapacity bounds the predictors and the aging tables the cache
// keeps, each: 32 covers the paper's 25-chip populations. Platforms are
// per grid size, not per chip, and are not bounded.
const chipCapacity = 32

// NewArtifactCache returns an empty cache. The zero value is also ready
// to use.
func NewArtifactCache() *ArtifactCache { return &ArtifactCache{} }

// ArtifactStats counts cache outcomes: a hit is a lookup that found an
// existing (possibly still-building) entry, a miss triggered a build.
type ArtifactStats struct {
	Hits, Misses int64
	Platforms    int
	Predictors   int
	AgingTables  int
}

// Stats snapshots the cache counters.
func (c *ArtifactCache) Stats() ArtifactStats {
	if c == nil {
		return ArtifactStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ArtifactStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Platforms:   len(c.platforms.m),
		Predictors:  len(c.preds.m),
		AgingTables: len(c.tabs.m),
	}
}

type gridKey struct{ rows, cols int }

type predKey struct {
	rows, cols int
	seed       int64
}

type tabKey struct {
	model string
	seed  int64
}

// platform bundles the chip-independent models a System is built from.
type platform struct {
	fp  *floorplan.Floorplan
	tm  *thermal.Model
	gen *variation.Generator
}

// cacheEntry is a singleflight slot: the first caller builds under the
// sync.Once, later callers block on it and share the outcome.
type cacheEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (e *cacheEntry[T]) get(build func() (T, error)) (T, error) {
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// lruMap maps keys to cache entries, optionally bounded to the most
// recently used keys.
type lruMap[K comparable, T any] struct {
	m     map[K]*cacheEntry[T]
	order []K // least recently used first; tracked only when bounded
}

// touch marks key as the most recently used and, with a positive limit,
// evicts the least recently used key once the map outgrows it. A caller
// still holding an evicted entry keeps using it; only the next lookup
// rebuilds.
func (l *lruMap[K, T]) touch(key K, limit int) {
	if limit <= 0 {
		return
	}
	for i, k := range l.order {
		if k == key {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.order = append(l.order, key)
	if len(l.order) > limit {
		delete(l.m, l.order[0])
		l.order = append(l.order[:0], l.order[1:]...)
	}
}

// lookup returns the entry for key in l, creating map and entry when
// absent, keeps l within limit keys (0: unbounded) and bumps the hit/miss
// counters. Callers must not hold c.mu.
func lookup[K comparable, T any](c *ArtifactCache, l *lruMap[K, T], key K, limit int) *cacheEntry[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.m == nil {
		l.m = make(map[K]*cacheEntry[T])
	}
	e, ok := l.m[key]
	if !ok {
		e = &cacheEntry[T]{}
		l.m[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	l.touch(key, limit)
	return e
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
	e := lookup(c, &c.platforms, gridKey{rows, cols}, 0)
	return e.get(func() (*platform, error) { return buildPlatform(rows, cols) })
}

// predictor returns the learned thermal predictor for (grid, seed).
func (c *ArtifactCache) predictor(s *System, chip *variation.Chip) (*thermpredict.Predictor, error) {
	build := func() (*thermpredict.Predictor, error) {
		return thermpredict.Learn(s.tm, s.pm, chip)
	}
	if c == nil {
		return build()
	}
	e := lookup(c, &c.preds, predKey{s.fp.Rows, s.fp.Cols, chip.Seed}, chipCapacity)
	return e.get(build)
}

// table returns the offline 3D aging table for (aging model, seed).
func (c *ArtifactCache) table(model string, seed int64, ca aging.FactorModel) (*aging.Table3D, error) {
	build := func() (*aging.Table3D, error) { return aging.DefaultTable(ca), nil }
	if c == nil {
		return build()
	}
	if model == "" {
		model = "nbti"
	}
	e := lookup(c, &c.tabs, tabKey{model, seed}, chipCapacity)
	return e.get(build)
}
