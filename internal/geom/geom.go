// Package geom provides the small geometric vocabulary shared by the
// router and the simulators: grid points, half-open rectangles, and a
// regular partition of a grid into rectangular regions.
//
// Coordinates follow the cost array convention of the LocusRoute paper:
// Y ("channel") is the vertical dimension and indexes routing channels,
// X ("grid") is the horizontal dimension and indexes routing grid columns.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the routing grid. X is the routing grid column,
// Y is the channel row.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{X: x, Y: y} }

// String returns the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// In reports whether p lies inside r.
func (p Point) In(r Rect) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// Rect is a half-open rectangle [X0,X1) x [Y0,Y1) on the routing grid.
// The zero Rect is empty.
type Rect struct {
	X0, Y0 int // inclusive
	X1, Y1 int // exclusive
}

// R constructs a rectangle from two corner points in any order. The
// resulting rectangle includes both corners.
func R(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{X0: x0, Y0: y0, X1: x1 + 1, Y1: y1 + 1}
}

// String returns the rectangle as "[x0,x1)x[y0,y1)".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Dx returns the width of r (0 if empty).
func (r Rect) Dx() int {
	if r.Empty() {
		return 0
	}
	return r.X1 - r.X0
}

// Dy returns the height of r (0 if empty).
func (r Rect) Dy() int {
	if r.Empty() {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the number of grid points in r.
func (r Rect) Area() int { return r.Dx() * r.Dy() }

// Intersect returns the largest rectangle contained in both r and s.
// If the rectangles do not overlap the result is empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		X0: max(r.X0, s.X0), Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1), Y1: min(r.Y1, s.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle containing both r and s. An empty
// rectangle is the identity element.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		X0: min(r.X0, s.X0), Y0: min(r.Y0, s.Y0),
		X1: max(r.X1, s.X1), Y1: max(r.Y1, s.Y1),
	}
}

// Overlaps reports whether r and s share at least one point.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// ContainsRect reports whether s is entirely inside r. An empty s is
// contained in everything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// AddPoint returns the smallest rectangle containing r and p.
func (r Rect) AddPoint(p Point) Rect {
	return r.Union(Rect{X0: p.X, Y0: p.Y, X1: p.X + 1, Y1: p.Y + 1})
}

// Grid describes the dimensions of a cost array: Channels rows by
// Grids columns.
type Grid struct {
	Channels int // number of routing channels (rows, Y)
	Grids    int // number of routing grid columns (X)
}

// Bounds returns the rectangle covering the whole grid.
func (g Grid) Bounds() Rect { return Rect{X0: 0, Y0: 0, X1: g.Grids, Y1: g.Channels} }

// Cells returns the total number of grid points.
func (g Grid) Cells() int { return g.Channels * g.Grids }

// Valid reports whether the grid has positive dimensions and at most
// math.MaxInt32 cells, so every row-major cell index fits an int32 (a
// routed path stores its cells that way).
func (g Grid) Valid() bool {
	return g.Channels > 0 && g.Grids > 0 && g.Channels <= math.MaxInt32/g.Grids
}

// Point returns the cell at row-major index i, y*Grids + x.
func (g Grid) Point(i int) Point { return Point{X: i % g.Grids, Y: i / g.Grids} }

// Clamp returns p moved to the nearest point inside the grid.
func (g Grid) Clamp(p Point) Point {
	if p.X < 0 {
		p.X = 0
	}
	if p.X >= g.Grids {
		p.X = g.Grids - 1
	}
	if p.Y < 0 {
		p.Y = 0
	}
	if p.Y >= g.Channels {
		p.Y = g.Channels - 1
	}
	return p
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
