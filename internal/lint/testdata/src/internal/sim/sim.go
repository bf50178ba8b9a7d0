// Package sim is the determinism-rule fixture: its import path puts it
// in entry-point territory, so exported Run*/Resume* functions are taint
// roots. Each nondeterminism source class has a positive case (reachable
// from an entry point, flagged) and a negative twin (unreachable, or
// using the sanctioned deterministic form, clean). The Config struct at
// the bottom exercises the key-completeness rule.
package sim

import (
	"crypto/sha256"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

// Engine mimics the simulation engine.
type Engine struct {
	seed int64
}

// --- wall clock -------------------------------------------------------

// RunClock is an entry point; the clock read hides one call deep, so a
// diagnostic here proves interprocedural propagation.
func (e *Engine) RunClock() int64 { return wallClock() }

func wallClock() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock.*result path from.*RunClock`
}

// unreachedClock is the negative twin: same source, no path from any
// entry point, no diagnostic.
func unreachedClock() time.Duration { return time.Since(time.Time{}) }

// --- math/rand --------------------------------------------------------

// RunGlobalRand reaches a draw from the process-global source.
func (e *Engine) RunGlobalRand() int { return tieBreak(7) }

func tieBreak(n int) int {
	return rand.Intn(n) // want `math/rand.Intn draws from the process-global source`
}

// RunSeededRand is the sanctioned form: a config-seeded *rand.Rand. The
// constructor pair and the method draw are all clean.
func (e *Engine) RunSeededRand() float64 {
	rng := rand.New(rand.NewSource(e.seed))
	return rng.Float64()
}

// --- map iteration order ----------------------------------------------

// RunMapAppend leaks iteration order through the append sink.
func (e *Engine) RunMapAppend(m map[string]float64) []string {
	var names []string
	for k := range m {
		names = append(names, k) // want `map iteration order escapes into append`
	}
	return names
}

// RunMapConcat leaks iteration order through string concatenation.
func (e *Engine) RunMapConcat(m map[string]float64) string {
	s := ""
	for k := range m {
		s += k // want `map iteration order escapes into string concatenation`
	}
	return s
}

// RunMapHash leaks iteration order into a hash.
func (e *Engine) RunMapHash(m map[int][]byte) [sha256.Size]byte {
	h := sha256.New()
	var sum [sha256.Size]byte
	for _, v := range m {
		h.Write(v) // want `map iteration order escapes into Write`
	}
	copy(sum[:], h.Sum(nil))
	return sum
}

// RunMapSorted is the collect-then-sort negative: the sort call
// sanitizes the appended keys before their order can escape.
func (e *Engine) RunMapSorted(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RunMapFold is the negative twin: a commutative numeric fold and a
// key-indexed write are order-insensitive, so ranging the map is fine.
func (e *Engine) RunMapFold(m map[int]float64, out []float64) float64 {
	var sum float64
	for k, v := range m {
		sum += v
		out[k] = v
	}
	return sum
}

// --- raw map accessor escape ------------------------------------------

// triplets mimics a sparse-matrix accumulator whose accessor returns the
// internal map (the shape numeric.Triplets.Keys had before it was
// replaced by the sorted Entries snapshot): every caller that ranges the
// returned map inherits a nondeterministic iteration surface.
type triplets struct {
	vals map[[2]int]float64
}

// keys hands out the raw internal map — the escape hatch under test.
func (t *triplets) keys() map[[2]int]float64 { return t.vals }

// RunRawKeyEscape ranges the accessor's raw map straight into append:
// the order taint crosses the call boundary with the map value.
func (e *Engine) RunRawKeyEscape(t *triplets) [][2]int {
	var ks [][2]int
	for k := range t.keys() {
		ks = append(ks, k) // want `map iteration order escapes into append`
	}
	return ks
}

// RunSortedKeySnapshot is the sanctioned twin — collect the keys, then
// sort them in the same function before the order can escape (the shape
// Entries implements).
func (e *Engine) RunSortedKeySnapshot(t *triplets) [][2]int {
	ks := make([][2]int, 0, len(t.keys()))
	for k := range t.keys() {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a][0] != ks[b][0] {
			return ks[a][0] < ks[b][0]
		}
		return ks[a][1] < ks[b][1]
	})
	return ks
}

// --- select -----------------------------------------------------------

// RunSelect races two ready channels; the runtime's pseudo-random pick
// is a per-run coin flip.
func (e *Engine) RunSelect(a, b chan int) int {
	select { // want `select with 2 communication cases`
	case x := <-a:
		return x
	case x := <-b:
		return x
	}
}

// RunPoll is the negative twin: one communication case plus default is
// a deterministic function of channel state.
func (e *Engine) RunPoll(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// --- host environment -------------------------------------------------

// RunProcs reads the host's scheduler width.
func (e *Engine) RunProcs() int { return workerCount() }

// RunEnv reads the host environment.
func (e *Engine) RunEnv() string { return envKnob() }

func workerCount() int {
	return runtime.GOMAXPROCS(0) // want `runtime.GOMAXPROCS depends on the host`
}

func envKnob() string {
	return os.Getenv("HAYAT_KNOB") // want `os.Getenv reads the host environment`
}

// unreachedEnv is the negative twin for the environment class: the same
// reads with no path from an entry point stay clean.
func unreachedEnv() (int, string) {
	return runtime.GOMAXPROCS(0), os.Getenv("HAYAT_KNOB")
}

// --- interface dispatch -----------------------------------------------

// ticker is dispatched through an interface: the call graph must fan the
// abstract method out to wallTicker.tick to find the clock read.
type ticker interface{ tick() int64 }

type wallTicker struct{}

func (wallTicker) tick() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock.*result path from.*RunTick`
}

// RunTick calls through the interface.
func (e *Engine) RunTick(t ticker) int64 { return t.tick() }

// --- result/checkpoint struct shape -----------------------------------

// Result mimics a serialized result payload: content hashes are computed
// over its bytes, so serialized map fields are flagged regardless of
// reachability.
type Result struct {
	Scores  map[string]float64 // want `Result.Scores is a serialized map field`
	Names   []string
	scratch map[string]int
	Cache   map[string]int `json:"-"`
}

// Checkpoint shares the shape check with Result.
type Checkpoint struct {
	PerCore map[int]float64 // want `Checkpoint.PerCore is a serialized map field`
	Health  []float64
}

// use silences unused warnings for the negative fixtures.
func (r *Result) use() map[string]int { return r.scratch }

// --- key-completeness Config ------------------------------------------

// Config mimics the simulation config whose marshalled bytes form the
// canonical cache key.
type Config struct {
	// Years enters the key like every untagged exported field: clean.
	Years float64
	// LogEvery is the allow-listed exclusion: the suppression directly
	// above the field carries the mandatory justification.
	//lint:ignore key-completeness logging cadence only, results never read it
	LogEvery int `json:"-"`
	// Debug is the violation: excluded from the key, no justification.
	Debug bool `json:"-"` // want `exported Config field Debug is excluded from the canonical cache key`
	// hidden is unexported and never marshalled: clean.
	hidden bool `json:"-"`
}

// useConfig keeps the unexported field referenced.
func useConfig(c Config) bool { return c.hidden }
