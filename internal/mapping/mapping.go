// Package mapping holds the thread-to-core assignment state shared by the
// run-time policies (internal/core, internal/baseline), the DTM manager
// (internal/dtm) and the simulation engine (internal/sim).
//
// It enforces the structural constraints of the problem formulation:
// each core executes at most one thread (Eq. 5), and the Dark Core Map is
// exactly the set of cores with an assigned thread (a core without work is
// power-gated).
package mapping

import (
	"fmt"

	"github.com/kit-ces/hayat/internal/workload"
)

// Assignment is a thread-to-core mapping m_(i,j,k).
type Assignment struct {
	threadOf []*workload.Thread       // per core; nil when the core is dark
	coreOf   map[*workload.Thread]int // inverse map
}

// New returns an empty assignment for n cores.
func New(n int) *Assignment {
	if n <= 0 {
		panic(fmt.Sprintf("mapping: invalid core count %d", n))
	}
	return &Assignment{
		threadOf: make([]*workload.Thread, n),
		coreOf:   make(map[*workload.Thread]int),
	}
}

// N returns the number of cores.
func (a *Assignment) N() int { return len(a.threadOf) }

// ThreadOn returns the thread running on core i, or nil if the core is
// dark.
func (a *Assignment) ThreadOn(i int) *workload.Thread { return a.threadOf[i] }

// CoreOf returns the core index running thread t and whether t is mapped.
func (a *Assignment) CoreOf(t *workload.Thread) (int, bool) {
	c, ok := a.coreOf[t]
	return c, ok
}

// NumAssigned returns the number of mapped threads (= powered-on cores).
func (a *Assignment) NumAssigned() int { return len(a.coreOf) }

// Assign places thread t on core i. It fails if the core is occupied or
// the thread is already mapped elsewhere.
func (a *Assignment) Assign(t *workload.Thread, i int) error {
	if t == nil {
		return fmt.Errorf("mapping: nil thread")
	}
	if i < 0 || i >= len(a.threadOf) {
		return fmt.Errorf("mapping: core %d outside [0,%d)", i, len(a.threadOf))
	}
	if a.threadOf[i] != nil {
		return fmt.Errorf("mapping: core %d already runs a thread", i)
	}
	if _, ok := a.coreOf[t]; ok {
		return fmt.Errorf("mapping: thread already assigned")
	}
	a.threadOf[i] = t
	a.coreOf[t] = i
	return nil
}

// Unassign removes thread t from the mapping (no-op if unmapped).
//
//lint:ignore reachability the internal/dtm tests and internal/exact's backtracking solver release cores with it
func (a *Assignment) Unassign(t *workload.Thread) {
	if c, ok := a.coreOf[t]; ok {
		a.threadOf[c] = nil
		delete(a.coreOf, t)
	}
}

// Migrate moves thread t to core `to`. It fails if t is unmapped or the
// destination is occupied.
func (a *Assignment) Migrate(t *workload.Thread, to int) error {
	from, ok := a.coreOf[t]
	if !ok {
		return fmt.Errorf("mapping: migrating unmapped thread")
	}
	if to < 0 || to >= len(a.threadOf) {
		return fmt.Errorf("mapping: core %d outside [0,%d)", to, len(a.threadOf))
	}
	if to == from {
		return nil
	}
	if a.threadOf[to] != nil {
		return fmt.Errorf("mapping: destination core %d occupied", to)
	}
	a.threadOf[from] = nil
	a.threadOf[to] = t
	a.coreOf[t] = to
	return nil
}

// Clear removes every assignment.
func (a *Assignment) Clear() {
	for i := range a.threadOf {
		a.threadOf[i] = nil
	}
	for t := range a.coreOf {
		delete(a.coreOf, t)
	}
}

// Clone returns an independent deep copy.
func (a *Assignment) Clone() *Assignment {
	c := New(len(a.threadOf))
	copy(c.threadOf, a.threadOf)
	for t, i := range a.coreOf {
		c.coreOf[t] = i
	}
	return c
}

// Validate checks the structural invariants (one thread per core, inverse
// map consistency).
//
//lint:ignore reachability the baseline, core and exact tests check every policy's mapping with it
func (a *Assignment) Validate() error {
	seen := make(map[*workload.Thread]int)
	for i, t := range a.threadOf {
		if t == nil {
			continue
		}
		if prev, dup := seen[t]; dup {
			return fmt.Errorf("mapping: thread on cores %d and %d", prev, i)
		}
		seen[t] = i
		if c, ok := a.coreOf[t]; !ok || c != i {
			return fmt.Errorf("mapping: inverse map inconsistent at core %d", i)
		}
	}
	if len(seen) != len(a.coreOf) {
		return fmt.Errorf("mapping: inverse map has %d entries, forward has %d", len(a.coreOf), len(seen))
	}
	return nil
}
