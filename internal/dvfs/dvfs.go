// Package dvfs models discrete per-core frequency levels (P-states). The
// paper assumes core-level dynamic frequency scaling with continuous
// frequencies ("each core may execute at its reduced safe-operating
// frequency"); real silicon quantises to a ladder. With a ladder
// installed, a thread's required frequency is rounded UP to the next
// level (the throughput constraint must still hold), which tightens core
// eligibility: a core whose aged f_max sits between the thread's raw
// requirement and the next level can no longer serve it.
//
// A nil/empty ladder means continuous DVFS — the paper's assumption and
// the default everywhere.
package dvfs

import (
	"fmt"
	"sort"
)

// Levels is an ascending ladder of frequencies in Hz.
type Levels []float64

// Uniform builds a ladder of `steps` evenly spaced levels over
// [min, max].
//
//lint:ignore reachability the internal/core and internal/sim tests build their frequency ladders with it
func Uniform(min, max float64, steps int) (Levels, error) {
	if steps < 2 || min <= 0 || max <= min {
		return nil, fmt.Errorf("dvfs: invalid ladder spec [%v, %v] × %d", min, max, steps)
	}
	l := make(Levels, steps)
	for i := range l {
		l[i] = min + float64(i)*(max-min)/float64(steps-1)
	}
	return l, nil
}

// Validate reports ladder errors (must be ascending and positive).
func (l Levels) Validate() error {
	if len(l) == 0 {
		return nil // continuous DVFS
	}
	if l[0] <= 0 {
		return fmt.Errorf("dvfs: non-positive level %v", l[0])
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			return fmt.Errorf("dvfs: ladder not strictly ascending at index %d", i)
		}
	}
	return nil
}

// Required returns the operating frequency for a thread requiring f Hz:
// the smallest level ≥ f, or (0, false) when the ladder tops out below f.
// A nil/empty ladder returns f unchanged (continuous DVFS).
func (l Levels) Required(f float64) (float64, bool) {
	if len(l) == 0 {
		return f, true
	}
	i := sort.SearchFloat64s(l, f)
	if i == len(l) {
		return 0, false
	}
	return l[i], true
}

// Cap returns the fastest level not exceeding fmax — the frequency a core
// with aged maximum fmax can actually be clocked at — or (0, false) when
// even the lowest level exceeds fmax. A nil ladder returns fmax.
func (l Levels) Cap(fmax float64) (float64, bool) {
	if len(l) == 0 {
		return fmax, true
	}
	i := sort.SearchFloat64s(l, fmax)
	// l[i-1] ≤ fmax (SearchFloat64s returns the first index with
	// l[i] ≥ fmax; adjust for exact hits).
	if i < len(l) && l[i] == fmax {
		return l[i], true
	}
	if i == 0 {
		return 0, false
	}
	return l[i-1], true
}
