package geom

import "fmt"

// Partition divides a Grid into PX x PY rectangular owned regions, one per
// processor, mirroring Figure 2 of the paper. Region (i, j) is owned by the
// processor at mesh coordinate (i, j); regions differ in size by at most one
// row/column when the grid does not divide evenly.
type Partition struct {
	Grid   Grid
	PX, PY int // processors along X (grids) and Y (channels)
}

// NewPartition validates and constructs a partition. PX*PY is the total
// processor count.
func NewPartition(g Grid, px, py int) (Partition, error) {
	if !g.Valid() {
		return Partition{}, fmt.Errorf("geom: invalid grid %+v", g)
	}
	if px <= 0 || py <= 0 {
		return Partition{}, fmt.Errorf("geom: invalid partition %dx%d", px, py)
	}
	if px > g.Grids || py > g.Channels {
		return Partition{}, fmt.Errorf("geom: partition %dx%d exceeds grid %dx%d",
			px, py, g.Grids, g.Channels)
	}
	return Partition{Grid: g, PX: px, PY: py}, nil
}

// Procs returns the number of processors (= regions).
func (p Partition) Procs() int { return p.PX * p.PY }

// Region returns the owned region of processor proc (row-major over mesh
// coordinates: proc = my*PX + mx).
func (p Partition) Region(proc int) Rect {
	mx, my := p.Coord(proc)
	return Rect{
		X0: cut(p.Grid.Grids, p.PX, mx),
		X1: cut(p.Grid.Grids, p.PX, mx+1),
		Y0: cut(p.Grid.Channels, p.PY, my),
		Y1: cut(p.Grid.Channels, p.PY, my+1),
	}
}

// Coord returns the mesh coordinate (mx, my) of processor proc.
func (p Partition) Coord(proc int) (mx, my int) {
	return proc % p.PX, proc / p.PX
}

// Proc returns the processor index at mesh coordinate (mx, my).
func (p Partition) Proc(mx, my int) int { return my*p.PX + mx }

// Owner returns the processor whose owned region contains pt. The point is
// clamped to the grid first, so every point has an owner.
func (p Partition) Owner(pt Point) int {
	pt = p.Grid.Clamp(pt)
	mx := locate(p.Grid.Grids, p.PX, pt.X)
	my := locate(p.Grid.Channels, p.PY, pt.Y)
	return p.Proc(mx, my)
}

// OwnerTable is Owner for in-grid cells as two lookups: a region's
// processor number is its mesh column plus PX times its mesh row, so
// col[x] holds the owner of (x, 0) — x's mesh column — and row[y] that of
// (0, y), and (x, y) belongs to col[x] + row[y]. Owner itself costs two binary searches and
// a clamp, which the per-cell commit and delta paths cannot afford.
type OwnerTable struct{ col, row []int }

// OwnerTable returns p's owner table, filled region by region.
func (p Partition) OwnerTable() OwnerTable {
	t := OwnerTable{col: make([]int, p.Grid.Grids), row: make([]int, p.Grid.Channels)}
	for mx := range p.PX {
		for x := cut(p.Grid.Grids, p.PX, mx); x < cut(p.Grid.Grids, p.PX, mx+1); x++ {
			t.col[x] = mx
		}
	}
	for my := range p.PY {
		for y := cut(p.Grid.Channels, p.PY, my); y < cut(p.Grid.Channels, p.PY, my+1); y++ {
			t.row[y] = my * p.PX
		}
	}
	return t
}

// Owner returns the processor whose owned region contains the in-grid
// cell (x, y).
func (t OwnerTable) Owner(x, y int) int { return t.col[x] + t.row[y] }

// MeshDistance returns the Manhattan distance between two processors on the
// mesh: the horizontal plus vertical hops between their regions, the
// distance Section 5.3.3's locality measure is defined over. It is not a
// packet's hop count: the simulated interconnect (internal/mesh) is a
// unidirectional torus, where a packet from processor 1 to processor 0
// of a 4x4 machine wraps around in 3 hops.
func (p Partition) MeshDistance(a, b int) int {
	ax, ay := p.Coord(a)
	bx, by := p.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// Neighbors returns the processors adjacent to proc on the mesh (N, S, E,
// W), in deterministic order, omitting off-mesh directions.
func (p Partition) Neighbors(proc int) []int {
	mx, my := p.Coord(proc)
	out := make([]int, 0, 4)
	if my > 0 {
		out = append(out, p.Proc(mx, my-1)) // north
	}
	if my < p.PY-1 {
		out = append(out, p.Proc(mx, my+1)) // south
	}
	if mx < p.PX-1 {
		out = append(out, p.Proc(mx+1, my)) // east
	}
	if mx > 0 {
		out = append(out, p.Proc(mx-1, my)) // west
	}
	return out
}

// RegionsTouching returns, in ascending processor order, every processor
// whose owned region overlaps r.
func (p Partition) RegionsTouching(r Rect) []int {
	r = r.Intersect(p.Grid.Bounds())
	if r.Empty() {
		return nil
	}
	mx0 := locate(p.Grid.Grids, p.PX, r.X0)
	mx1 := locate(p.Grid.Grids, p.PX, r.X1-1)
	my0 := locate(p.Grid.Channels, p.PY, r.Y0)
	my1 := locate(p.Grid.Channels, p.PY, r.Y1-1)
	out := make([]int, 0, (mx1-mx0+1)*(my1-my0+1))
	for my := my0; my <= my1; my++ {
		for mx := mx0; mx <= mx1; mx++ {
			out = append(out, p.Proc(mx, my))
		}
	}
	return out
}

// SquarestFactors returns the pair (px, py) with px*py = n that is as close
// to square as possible, preferring a wider-than-tall layout (px >= py),
// which matches the paper's 4x4 arrangement for 16 processors and its wide
// cost arrays.
func SquarestFactors(n int) (px, py int) {
	if n <= 0 {
		return 1, 1
	}
	px, py = n, 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			py, px = d, n/d
		}
	}
	return px, py
}

// cut returns the boundary index of the i-th of n nearly equal slices of
// length total: slice i spans [cut(i), cut(i+1)).
func cut(total, n, i int) int { return i * total / n }

// locate returns which of n nearly equal slices of length total contains
// index x. Inverse of cut.
func locate(total, n, x int) int {
	i := (x*n + n - 1) / total
	for i > 0 && cut(total, n, i) > x {
		i--
	}
	for i < n-1 && cut(total, n, i+1) <= x {
		i++
	}
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
