// Package route implements the LocusRoute routing algorithm (Section 3 of
// the paper): each wire is routed along the path with the minimal sum of
// cost array entries, choosing among the low-bend routes between its pins;
// several rip-up-and-reroute iterations improve the final quality.
//
// The router core is written against the CostView interface so the same
// algorithm drives three executions: the sequential reference router, each
// message passing node's local view, and the traced shared memory version
// (where every read and write is recorded for the coherence simulator).
// A plain ArrayView is costed by run sums straight off its cells; any
// other view is read in path order, a straight run at a time through
// CostRun when it is a RunCostView, else cell by cell through Cost. Either
// way the winner is written into the path as its three straight runs,
// and a path is placed on (or ripped from) a plain array without an
// interface call per cell (Place, Commit, RipUp).
package route

import (
	"cmp"
	"slices"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
)

// CostView is the router's window onto a cost array. Implementations
// decide where reads and writes actually land (a private copy, a shared
// array, a traced array).
type CostView interface {
	// Grid returns the array dimensions.
	Grid() geom.Grid
	// Cost returns the current cost at (x, y).
	Cost(x, y int) int32
	// AddCost adds d (+1 route, -1 rip-up) to the cell at (x, y).
	AddCost(x, y int, d int32)
}

// RunCostView is a CostView that costs a straight run of cells in one
// call. The kernel walks a candidate that is not on a plain array as its
// straight runs and hands each to CostRun when the view has it, else
// reads the run's cells through Cost one by one; either way the view
// observes the same cells in the same order.
type RunCostView interface {
	CostView
	// CostRun returns the sum of Cost over the n >= 1 cells
	// (x + i·dx, y + i·dy), i = 0..n-1, one of dx and dy zero and the
	// other ±1, read in that order.
	CostRun(x, y, dx, dy, n int) int64
}

// Params tunes the router.
type Params struct {
	// Iterations is the number of routing iterations; each wire is routed
	// once per iteration, with rip-up before rerouting (>=1). The paper
	// notes several iterations improve final quality.
	Iterations int
	// MaxHVHCandidates caps the number of horizontal-vertical-horizontal
	// candidate routes evaluated per two-pin segment. Long wires have
	// hundreds of possible jog columns; LocusRoute samples the locus. A
	// value <= 0 means DefaultHVHCandidates.
	MaxHVHCandidates int
	// VHVDetourChannels is how many channels beyond the pin band the
	// vertical-horizontal-vertical family may detour into (0 keeps the
	// horizontal segment strictly between the pin channels).
	VHVDetourChannels int
}

// DefaultHVHCandidates bounds the HVH locus sampling.
const DefaultHVHCandidates = 24

// DefaultParams are the parameters used by all paper experiments.
func DefaultParams() Params {
	return Params{Iterations: 3, MaxHVHCandidates: DefaultHVHCandidates, VHVDetourChannels: 1}
}

// Normalized returns p with the defaults every routing driver applies
// (Iterations floored at 1, MaxHVHCandidates defaulted). Exported so
// alternative drivers (internal/part) reproduce Sequential's parameter
// handling exactly.
func (p Params) Normalized() Params { return p.withDefaults() }

func (p Params) withDefaults() Params {
	if p.Iterations <= 0 {
		p.Iterations = 1
	}
	if p.MaxHVHCandidates <= 0 {
		p.MaxHVHCandidates = DefaultHVHCandidates
	}
	return p
}

// Path is the set of grid cells a routed wire occupies, deduplicated
// within the wire (a wire crossing a cell twice still counts once in the
// cost array).
type Path struct {
	Cells []geom.Point
}

// Len returns the number of cells in the path.
func (p Path) Len() int { return len(p.Cells) }

// Bounds returns the bounding box of the path's cells.
func (p Path) Bounds() geom.Rect {
	var bb geom.Rect
	for _, c := range p.Cells {
		bb = bb.AddPoint(c)
	}
	return bb
}

// Eval holds the result of evaluating a wire against a cost view.
type Eval struct {
	Path Path
	// Cost is the sum of cost array entries along the chosen path at the
	// time it was chosen; the occupancy factor is the sum of these over
	// all wires (Section 3).
	Cost int64
	// CellsExamined counts cost reads made during candidate evaluation,
	// the work unit of the compute-time model.
	CellsExamined int
}

// RouteWire evaluates the candidate routes for w against view and returns
// the best one. It does not modify the view; call Commit to place the
// wire. Multi-pin wires are decomposed into two-pin segments between
// consecutive pins sorted by X, as LocusRoute does; the per-wire path is
// the deduplicated union of segment paths.
//
// This standalone form builds a fresh Scratch per call and is meant for
// tests and one-off evaluations; hot paths hold a Scratch per worker and
// call its RouteWire method instead.
func RouteWire(view CostView, w *circuit.Wire, params Params) Eval {
	var s Scratch
	return s.RouteWire(view, w, params)
}

// PathCost returns the sum of cost entries along the (deduplicated) path
// as seen through view — the occupancy contribution of a wire routed at
// this moment (Section 3 of the paper). Callers measure it against the
// authoritative array of their paradigm just before committing.
func PathCost(view CostView, path Path) int64 {
	var c int64
	if av, ok := view.(ArrayView); ok {
		cells, stride := av.A.Cells(), av.A.Grid().Grids
		for _, p := range path.Cells {
			c += int64(cells[p.Y*stride+p.X])
		}
		return c
	}
	for _, cell := range path.Cells {
		c += int64(view.Cost(cell.X, cell.Y))
	}
	return c
}

// Commit adds one wire along path in view.
func Commit(view CostView, path Path) { add(view, path, 1) }

// RipUp removes one wire along path in view (decrementing the cost array
// locations in its path, as the paper describes for rerouting).
func RipUp(view CostView, path Path) { add(view, path, -1) }

// add adds d to every cell of path in view, straight on the cells of a
// plain ArrayView.
func add(view CostView, path Path, d int32) {
	if av, ok := view.(ArrayView); ok {
		cells, stride := av.A.Cells(), av.A.Grid().Grids
		for _, p := range path.Cells {
			cells[p.Y*stride+p.X] += d
		}
		return
	}
	for _, c := range path.Cells {
		view.AddCost(c.X, c.Y, d)
	}
}

// Place commits path on a and returns its cost just before the commit:
// PathCost then Commit in one pass, which is the same thing because a
// kernel path never repeats a cell.
func Place(a *costarray.CostArray, path Path) int64 {
	cells, stride := a.Cells(), a.Grid().Grids
	var c int64
	for _, p := range path.Cells {
		i := p.Y*stride + p.X
		c += int64(cells[i])
		cells[i]++
	}
	return c
}

// SortPins returns pins in the kernel's segment order, (X, Y): pins
// itself when already in order (the common case for generated circuits),
// otherwise a sorted copy — it never reorders pins in place.
func SortPins(pins []geom.Point) []geom.Point {
	if slices.IsSortedFunc(pins, pinCmp) {
		return pins
	}
	out := slices.Clone(pins)
	slices.SortFunc(out, pinCmp)
	return out
}

// pinCmp is the pin ordering of the segment decomposition: by X, ties by
// Y.
func pinCmp(a, b geom.Point) int {
	return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
}

// hvhPath builds the cell list for the horizontal-vertical-horizontal
// route through jog column xm, deduplicating the two corner cells. It is
// the reference materialisation of walkHVH, kept for tests that compare
// the kernel against explicitly built candidate paths.
func hvhPath(p, q geom.Point, xm int) []geom.Point {
	cells := make([]geom.Point, 0, absInt(p.X-q.X)+absInt(p.Y-q.Y)+2)
	cells = appendHorizontal(cells, p.Y, p.X, xm)
	cells = appendVertical(cells, xm, p.Y, q.Y)
	cells = appendHorizontal(cells, q.Y, xm, q.X)
	return dedupeAdjacent(cells)
}

// vhvPath builds the cell list for the vertical-horizontal-vertical route
// through crossing channel ym (reference materialisation of walkVHV).
func vhvPath(p, q geom.Point, ym int) []geom.Point {
	cells := make([]geom.Point, 0, absInt(p.X-q.X)+absInt(p.Y-q.Y)+2)
	cells = appendVertical(cells, p.X, p.Y, ym)
	cells = appendHorizontal(cells, ym, p.X, q.X)
	cells = appendVertical(cells, q.X, ym, q.Y)
	return dedupeAdjacent(cells)
}

// appendHorizontal appends the cells of the horizontal run at channel y
// from x0 to x1 inclusive (either direction).
func appendHorizontal(cells []geom.Point, y, x0, x1 int) []geom.Point {
	step := 1
	if x1 < x0 {
		step = -1
	}
	for x := x0; ; x += step {
		cells = append(cells, geom.Pt(x, y))
		if x == x1 {
			break
		}
	}
	return cells
}

// appendVertical appends the cells of the vertical run at column x from y0
// to y1 inclusive.
func appendVertical(cells []geom.Point, x, y0, y1 int) []geom.Point {
	step := 1
	if y1 < y0 {
		step = -1
	}
	for y := y0; ; y += step {
		cells = append(cells, geom.Pt(x, y))
		if y == y1 {
			break
		}
	}
	return cells
}

// dedupeAdjacent removes consecutive duplicate cells (the corners where
// segments meet). Candidate paths never revisit a non-adjacent cell.
func dedupeAdjacent(cells []geom.Point) []geom.Point {
	out := cells[:0]
	for i, c := range cells {
		if i == 0 || c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
