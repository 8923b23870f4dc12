// Package route implements the LocusRoute routing algorithm (Section 3 of
// the paper): each wire is routed along the path with the minimal sum of
// cost array entries, choosing among the low-bend routes between its pins;
// several rip-up-and-reroute iterations improve the final quality.
//
// The kernel reads one thing, a plain cost array (ArrayView), and costs
// every candidate by run sums straight off its cells. Each paradigm hands
// it the array it prices with: the sequential router, the partitioned
// router and the daemon their own array, each message passing node its
// local view, the traced shared memory version the shared array, and
// the negotiated schedule its materialised price array. The shared
// memory trace does not read the array a second time: a ReadObserver on
// the Scratch is told each candidate's three straight runs, the cells
// the paper's program reads, in its order. The winner is written into the
// path as those same runs. A path is the list of cost-array words the
// paper's router changes to place or rip up a wire: each cell is its
// row-major index, so a path is placed on (or ripped from) a plain array
// without an interface call or an index computation per cell (Place,
// Commit, RipUp); a CostView is only the writer a path lands through
// when its writes must go further than one array (message passing,
// traced rip-up).
package route

import (
	"cmp"
	"slices"

	"locusroute/internal/costarray"
	"locusroute/internal/geom"
)

// CostView is where Commit and RipUp land a path's writes: ArrayView for
// a plain array, or a writer that also records or forwards each one.
type CostView interface {
	// AddCell adds d (+1 route, -1 rip-up) to the cell at row-major
	// index i (geom.Grid.Point decodes it).
	AddCell(i int, d int32)
}

// ReadObserver is told of the cost reads the kernel's candidate
// evaluation stands for: for each candidate of each segment, in
// enumeration order, its straight runs in path order, the corner cell
// where two runs meet reported once (so a run that is only a corner is
// not reported). The kernel reads the array by run sums either way; an
// observer is how the shared memory version traces the reads of the
// paper's program.
type ReadObserver interface {
	// ReadRun reports the n >= 1 cells (x + i·dx, y + i·dy), i = 0..n-1,
	// read in that order; one of dx and dy is zero and the other ±1.
	ReadRun(x, y, dx, dy, n int)
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

// Path is the set of cost-array cells a routed wire occupies, in the
// order the kernel wrote them, deduplicated within the wire (a wire
// crossing a cell twice still counts once in the cost array). Each cell
// is its row-major index y*Grids + x, four bytes like the cost array
// word it names; geom.Grid.Valid bounds a grid's cells so every index
// fits, and geom.Grid.Point decodes one for a consumer that needs the
// coordinates.
type Path struct {
	Cells []int32
}

// Len returns the number of cells in the path.
func (p Path) Len() int { return len(p.Cells) }

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

// PathCost returns the sum of a's entries along the (deduplicated) path
// — the occupancy contribution of a wire routed at this moment (Section
// 3 of the paper). Callers measure it against the authoritative array of
// their paradigm just before committing.
func PathCost(a *costarray.CostArray, path Path) int64 {
	cells := a.Cells()
	var c int64
	for _, i := range path.Cells {
		c += int64(cells[i])
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
		cells := av.A.Cells()
		for _, i := range path.Cells {
			cells[i] += d
		}
		return
	}
	for _, i := range path.Cells {
		view.AddCell(int(i), d)
	}
}

// Place commits path on a and returns its cost just before the commit:
// PathCost then Commit in one pass, which is the same thing because a
// kernel path never repeats a cell.
func Place(a *costarray.CostArray, path Path) int64 {
	cells := a.Cells()
	var c int64
	for _, i := range path.Cells {
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

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
