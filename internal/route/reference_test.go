package route

import (
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
)

// The reference kernel: every candidate materialised as the list of
// cells the paper's program reads along it, in path order, and costed
// cell by cell. The kernel's run sums, its observed runs and its winner
// must agree with it exactly.

// hvhPath builds the cell list for the horizontal-vertical-horizontal
// route through jog column xm, deduplicating the two corner cells.
func hvhPath(p, q geom.Point, xm int) []geom.Point {
	cells := make([]geom.Point, 0, absInt(p.X-q.X)+absInt(p.Y-q.Y)+2)
	cells = appendHorizontal(cells, p.Y, p.X, xm)
	cells = appendVertical(cells, xm, p.Y, q.Y)
	cells = appendHorizontal(cells, q.Y, xm, q.X)
	return dedupeAdjacent(cells)
}

// vhvPath builds the cell list for the vertical-horizontal-vertical route
// through crossing channel ym.
func vhvPath(p, q geom.Point, ym int) []geom.Point {
	cells := make([]geom.Point, 0, absInt(p.X-q.X)+absInt(p.Y-q.Y)+2)
	cells = appendVertical(cells, p.X, p.Y, ym)
	cells = appendHorizontal(cells, ym, p.X, q.X)
	cells = appendVertical(cells, q.X, ym, q.Y)
	return dedupeAdjacent(cells)
}

// refPath is vhvPath when vhv, else hvhPath.
func refPath(p, q geom.Point, vhv bool, m int) []geom.Point {
	if vhv {
		return vhvPath(p, q, m)
	}
	return hvhPath(p, q, m)
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
// segments meet). Candidate paths never revisit a non-adjacent cell,
// except a same-column VHV detour, whose two verticals overlap beyond
// the pins and are read twice.
func dedupeAdjacent(cells []geom.Point) []geom.Point {
	out := cells[:0]
	for i, c := range cells {
		if i == 0 || c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// refCandidates materialises every candidate of segment p–q in the
// kernel's enumeration order: the HVH family over the sampled jog
// columns, then the VHV family over the pin band extended by the detour
// and clamped to the grid.
func refCandidates(g geom.Grid, p, q geom.Point, params Params) [][]geom.Point {
	var cands [][]geom.Point
	for _, xm := range hvhSamples(nil, min(p.X, q.X), max(p.X, q.X), params.MaxHVHCandidates) {
		cands = append(cands, hvhPath(p, q, xm))
	}
	y1 := min(max(p.Y, q.Y)+params.VHVDetourChannels, g.Channels-1)
	for ym := max(min(p.Y, q.Y)-params.VHVDetourChannels, 0); ym <= y1; ym++ {
		cands = append(cands, vhvPath(p, q, ym))
	}
	return cands
}

// refRoute routes pins on a by the reference kernel and returns its Eval
// and walk, every candidate of every segment in enumeration order: its
// cells are the reads the paper's program makes, which an observer of
// the kernel must be told of.
func refRoute(a *costarray.CostArray, pins []geom.Point, params Params) (ev Eval, walk [][]geom.Point) {
	params = params.withDefaults()
	pins = SortPins(pins)
	seen := make(map[geom.Point]bool)
	for i := 0; i+1 < len(pins); i++ {
		var best []geom.Point
		bestCost := int64(-1)
		for _, c := range refCandidates(a.Grid(), pins[i], pins[i+1], params) {
			var sum int64
			for _, cell := range c {
				sum += int64(a.At(cell.X, cell.Y))
			}
			ev.CellsExamined += len(c)
			walk = append(walk, c)
			// A negative running best reads as "no candidate yet", as in
			// the kernel (TestNegativeBestIsReplaced).
			if bestCost < 0 || sum < bestCost {
				best, bestCost = c, sum
			}
		}
		ev.Cost += bestCost
		for _, cell := range best {
			if !seen[cell] {
				seen[cell] = true
				ev.Path.Cells = append(ev.Path.Cells, int32(a.Index(cell.X, cell.Y)))
			}
		}
	}
	return ev, walk
}
