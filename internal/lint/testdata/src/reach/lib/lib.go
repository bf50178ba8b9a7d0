// Package lib is the reachability fixture's library. TestReachability
// loads it together with reach/cmd: one function here is reached by
// nothing and is reported; every other one is reached from cmd's main or
// is a root of its own (an external-interface method, a package-level
// initialiser's callee, a function kept by a directive).
package lib

import (
	"errors"
	"fmt"
	"sort"
)

// Widget is constructed by the command.
type Widget struct{ n int }

// NewWidget is called from main: reached.
func NewWidget(n int) Widget { return Widget{n: n} }

// String implements fmt.Stringer. The command hands the Widget to
// fmt.Println, which calls String where the call graph cannot see.
func (w Widget) String() string { return fmt.Sprintf("widget(%d)", w.n) }

// byLength implements sort.Interface; nothing in the module calls its
// methods by name.
type byLength []string

func (b byLength) Len() int           { return len(b) }
func (b byLength) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLength) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// wrapErr is an error type: Error implements the universe's error, and
// package errors finds Unwrap through an unnamed interface.
type wrapErr struct{ err error }

func (e *wrapErr) Error() string { return "wrapped: " + e.err.Error() }
func (e *wrapErr) Unwrap() error { return e.err }

// registry is built at package initialisation, by a constructor nothing
// else calls.
var registry = newRegistry(4)

func newRegistry(n int) []string { return make([]string, 0, n) }

// Registry exposes the initialised registry to the command.
func Registry() []string { return registry }

// Shape is a module interface; TotalArea calls through it.
type Shape interface{ Area() float64 }

// Square is reached only through Shape's dispatch in TotalArea.
type Square struct{ Side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// TotalArea is called from main.
func TotalArea(shapes []Shape) float64 {
	total := 0.0
	for _, s := range shapes {
		total += s.Area()
	}
	return total
}

// Kept is reached by nothing in the program, on purpose.
//
//lint:ignore reachability the fixture's kept-by-reason case
func Kept() int { return keptHelper() }

// keptHelper is reached only through Kept.
func keptHelper() int { return 7 }

func orphan() int { return 42 } // want `lib.orphan is reached by no command, init, package-level initialiser or exported hayat API`

// The assertions bring sort's and errors' scopes into the module, as a
// library that sorts and wraps errors would.
var (
	_ sort.Interface = byLength(nil)
	_ error          = &wrapErr{err: errors.New("x")}
)
