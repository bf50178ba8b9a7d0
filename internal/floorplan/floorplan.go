// Package floorplan models the physical layout of the manycore chip: a
// regular grid of homogeneous cores with fixed dimensions, the neighbour
// topology used by the thermal model, and the dark-silicon budget that
// bounds how many cores a Dark Core Map (DCM) may power on.
//
// The paper's setup is an 8×8 grid of Alpha-21264-style cores of
// 1.70 mm × 1.75 mm each (22 nm scaled to 11 nm per ITRS factors); those
// are the package defaults.
package floorplan

import "fmt"

// Default geometry from the paper's experimental setup (Fig. 2 caption).
const (
	DefaultRows       = 8
	DefaultCols       = 8
	DefaultCoreWidth  = 1.70e-3 // metres
	DefaultCoreHeight = 1.75e-3 // metres
)

// Floorplan describes the chip layout. Cores are indexed row-major:
// core (r, c) has index r*Cols + c.
type Floorplan struct {
	Rows, Cols int
	// CoreWidth and CoreHeight are the per-core dimensions in metres.
	CoreWidth, CoreHeight float64
}

// New returns a floorplan with the given grid shape and the paper's default
// core dimensions. It panics if rows or cols is not positive.
func New(rows, cols int) *Floorplan {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("floorplan: invalid grid %d×%d", rows, cols))
	}
	return &Floorplan{
		Rows: rows, Cols: cols,
		CoreWidth: DefaultCoreWidth, CoreHeight: DefaultCoreHeight,
	}
}

// Default returns the paper's 8×8 floorplan.
func Default() *Floorplan { return New(DefaultRows, DefaultCols) }

// N returns the total number of cores.
func (f *Floorplan) N() int { return f.Rows * f.Cols }

// Index returns the core index for grid position (row, col).
func (f *Floorplan) Index(row, col int) int {
	if row < 0 || row >= f.Rows || col < 0 || col >= f.Cols {
		panic(fmt.Sprintf("floorplan: position (%d,%d) outside %d×%d grid", row, col, f.Rows, f.Cols))
	}
	return row*f.Cols + col
}

// Position returns the grid position of core i.
func (f *Floorplan) Position(i int) (row, col int) {
	if i < 0 || i >= f.N() {
		panic(fmt.Sprintf("floorplan: core index %d outside [0,%d)", i, f.N()))
	}
	return i / f.Cols, i % f.Cols
}

// CoreArea returns the area of a single core in m².
func (f *Floorplan) CoreArea() float64 { return f.CoreWidth * f.CoreHeight }

// Neighbors appends to dst the indices of the cores sharing an edge with
// core i (4-neighbourhood) and returns the extended slice.
//
//lint:ignore reachability internal/thermal's tests walk the grid with it to assemble their reference networks
func (f *Floorplan) Neighbors(dst []int, i int) []int {
	row, col := f.Position(i)
	if row > 0 {
		dst = append(dst, f.Index(row-1, col))
	}
	if row < f.Rows-1 {
		dst = append(dst, f.Index(row+1, col))
	}
	if col > 0 {
		dst = append(dst, f.Index(row, col-1))
	}
	if col < f.Cols-1 {
		dst = append(dst, f.Index(row, col+1))
	}
	return dst
}

// ManhattanDistance returns the grid Manhattan distance between cores a
// and b.
//
//lint:ignore reachability the core and baseline tests measure placements with it, and their verbatim reference copies of Hayat and VAA call it
func (f *Floorplan) ManhattanDistance(a, b int) int {
	ra, ca := f.Position(a)
	rb, cb := f.Position(b)
	return abs(ra-rb) + abs(ca-cb)
}

// MaxOnCores returns the dark-silicon budget: the largest number of
// cores out of n that may be powered on while at least darkFraction of
// them stay dark, ⌊n·(1 − darkFraction)⌋, but never fewer than one, so
// a tiny grid at a high dark fraction still runs a thread.
func MaxOnCores(n int, darkFraction float64) int {
	return max(1, int(float64(n)*(1-darkFraction)))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
