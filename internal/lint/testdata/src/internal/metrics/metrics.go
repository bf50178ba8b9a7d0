// Package metrics is the determinism-rule fixture for the population
// summary: import paths containing internal/metrics compute the
// aggregates of every population Result, so they sit inside the rule's
// reporting scope like the engine itself. A package-level initialiser
// that reads the wall clock is flagged; its deterministic twin is clean.
package metrics

import "time"

// stamp would differ between two processes summarising the same
// population.
var stamp = time.Now().Unix() // want `time.Now reads the wall clock.*package-level initialiser`

// seriesPoints is computed from constants only: clean.
var seriesPoints = points(10, 2)

func points(years, perYear int) int { return years*perYear + 1 }

// Summary mimics the population summary.
type Summary struct {
	Chips int
	Stamp int64
}

// Summarize builds a summary from the initialised values.
func Summarize(chips int) Summary {
	return Summary{Chips: chips * seriesPoints, Stamp: stamp}
}
