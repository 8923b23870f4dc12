package part

import (
	"math/rand"
	"slices"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/route"
)

// checkTree verifies the structural invariants every tree must satisfy:
// children partition their parent exactly, leaves tile the grid with no
// overlap, and depths are consistent.
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	nodes := tr.nodes
	if nodes[0].Rect != tr.grid.Bounds() {
		t.Fatalf("root rect %v != grid bounds %v", nodes[0].Rect, tr.grid.Bounds())
	}
	for i, n := range nodes {
		if n.Leaf() {
			continue
		}
		l, r := nodes[n.Left], nodes[n.Right]
		if l.Depth != n.Depth+1 || r.Depth != n.Depth+1 {
			t.Fatalf("node %d depth %d: children depths %d/%d", i, n.Depth, l.Depth, r.Depth)
		}
		if l.Rect.Overlaps(r.Rect) {
			t.Fatalf("node %d: children overlap: %v and %v", i, l.Rect, r.Rect)
		}
		if l.Rect.Area()+r.Rect.Area() != n.Rect.Area() {
			t.Fatalf("node %d: children %v+%v do not partition %v", i, l.Rect, r.Rect, n.Rect)
		}
		if !n.Rect.ContainsRect(l.Rect) || !n.Rect.ContainsRect(r.Rect) {
			t.Fatalf("node %d: child escapes parent %v", i, n.Rect)
		}
	}
	area := 0
	leaves := tr.leaves
	for i, li := range leaves {
		area += nodes[li].Rect.Area()
		for _, lj := range leaves[:i] {
			if nodes[li].Rect.Overlaps(nodes[lj].Rect) {
				t.Fatalf("leaves %d and %d overlap", li, lj)
			}
		}
	}
	if area != tr.grid.Cells() {
		t.Fatalf("leaf union covers %d cells, grid has %d", area, tr.grid.Cells())
	}
}

func TestTreeShapes(t *testing.T) {
	g := geom.Grid{Channels: 10, Grids: 341}
	for _, leaves := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		tr, err := NewTree(g, leaves)
		if err != nil {
			t.Fatalf("NewTree(%d): %v", leaves, err)
		}
		if tr.Leaves() != leaves {
			t.Errorf("NewTree(%d): realised %d leaves", leaves, tr.Leaves())
		}
		checkTree(t, tr)
	}
	if tr, err := NewTree(g, 1); err != nil || tr.Depth() != 0 || len(tr.nodes) != 1 {
		t.Errorf("single-leaf tree should be one root node, got %d nodes (err %v)", len(tr.nodes), err)
	}
}

func TestTreeDegenerate(t *testing.T) {
	// A 1x1 grid cannot split at all; a 1xN grid only splits along X.
	tr, err := NewTree(geom.Grid{Channels: 1, Grids: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1 {
		t.Errorf("1x1 grid: want 1 leaf, got %d", tr.Leaves())
	}
	tr, err = NewTree(geom.Grid{Channels: 1, Grids: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 4 {
		t.Errorf("1x4 grid: want 4 leaves, got %d", tr.Leaves())
	}
	checkTree(t, tr)
	if _, err := NewTree(geom.Grid{}, 2); err == nil {
		t.Error("invalid grid accepted")
	}
	if _, err := NewTree(geom.Grid{Channels: 2, Grids: 2}, 0); err == nil {
		t.Error("zero leaves accepted")
	}
}

func TestClassifyDeepest(t *testing.T) {
	g := geom.Grid{Channels: 16, Grids: 64}
	tr, err := NewTree(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tr.nodes
	for _, li := range tr.leaves {
		r := nodes[li].Rect
		// A footprint strictly inside a leaf classifies to that leaf.
		fp := geom.Rect{X0: r.X0, Y0: r.Y0, X1: r.X0 + 1, Y1: r.Y0 + 1}
		if got := tr.Classify(fp); got != li {
			t.Errorf("footprint %v in leaf %v classified to node %d", fp, r, got)
		}
	}
	// The whole grid classifies to the root.
	if got := tr.Classify(g.Bounds()); got != 0 {
		t.Errorf("grid-wide footprint classified to node %d, want root", got)
	}
	// An empty footprint classifies to the root.
	if got := tr.Classify(geom.Rect{}); got != 0 {
		t.Errorf("empty footprint classified to node %d, want root", got)
	}
	// A footprint straddling the root cut classifies to the root and
	// overlaps both children — the symmetric boundary condition.
	root := nodes[0]
	l, r := nodes[root.Left], nodes[root.Right]
	var fp geom.Rect
	if l.Rect.X1 == r.Rect.X0 { // vertical cut
		fp = geom.Rect{X0: l.Rect.X1 - 1, Y0: 0, X1: r.Rect.X0 + 1, Y1: 1}
	} else {
		fp = geom.Rect{X0: 0, Y0: l.Rect.Y1 - 1, X1: 1, Y1: r.Rect.Y0 + 1}
	}
	if got := tr.Classify(fp); got != 0 {
		t.Errorf("cut-straddling footprint %v classified to node %d, want root", fp, got)
	}
	if !fp.Overlaps(l.Rect) || !fp.Overlaps(r.Rect) {
		t.Errorf("straddling footprint %v should overlap both children", fp)
	}
}

func TestFootprint(t *testing.T) {
	g := geom.Grid{Channels: 10, Grids: 100}
	w := &circuit.Wire{ID: 0, Pins: []geom.Point{geom.Pt(10, 3), geom.Pt(40, 6)}}
	fp := Footprint(w, route.Params{VHVDetourChannels: 2}, g)
	want := geom.Rect{X0: 10, Y0: 1, X1: 41, Y1: 9}
	if fp != want {
		t.Errorf("footprint %v, want %v", fp, want)
	}
	// Detour clamps to the grid.
	w2 := &circuit.Wire{ID: 1, Pins: []geom.Point{geom.Pt(0, 0), geom.Pt(5, 9)}}
	fp2 := Footprint(w2, route.Params{VHVDetourChannels: 5}, g)
	want2 := geom.Rect{X0: 0, Y0: 0, X1: 6, Y1: 10}
	if fp2 != want2 {
		t.Errorf("clamped footprint %v, want %v", fp2, want2)
	}
	// Zero detour is the pin bounding box; negative is treated as zero.
	fp3 := Footprint(w, route.Params{VHVDetourChannels: -1}, g)
	want3 := geom.Rect{X0: 10, Y0: 3, X1: 41, Y1: 7}
	if fp3 != want3 {
		t.Errorf("no-detour footprint %v, want %v", fp3, want3)
	}
	if fp := Footprint(&circuit.Wire{ID: 2}, route.Params{}, g); !fp.Empty() {
		t.Errorf("pinless wire footprint %v, want empty", fp)
	}
}

// TestFootprintCoversKernel pins the containment theorem the whole
// package rests on: every cell the kernel reads or writes while routing
// a wire lies inside Footprint. A tracking observer records every cell
// the candidates read and a tracking writer every cell Commit and RipUp
// write; any escape is a soundness bug in partition-parallel routing.
func TestFootprintCoversKernel(t *testing.T) {
	c, err := circuit.Generate(circuit.BnrELike(7))
	if err != nil {
		t.Fatal(err)
	}
	params := route.DefaultParams()
	tv := &touchView{arr: costarray.New(c.Grid)}
	s := route.NewScratch(c.Grid)
	s.Observe(tv)
	for i := range c.Wires {
		w := &c.Wires[i]
		fp := Footprint(w, params, c.Grid)
		tv.touched = tv.touched[:0]
		ev := s.RouteWire(route.ArrayView{A: tv.arr}, w, params)
		route.Commit(tv, ev.Path)
		route.RipUp(tv, ev.Path)
		if len(tv.touched) != ev.CellsExamined+2*ev.Path.Len() {
			t.Fatalf("wire %d: %d cells touched, want the %d read and %d written", w.ID,
				len(tv.touched), ev.CellsExamined, 2*ev.Path.Len())
		}
		for _, p := range tv.touched {
			if !p.In(fp) {
				t.Fatalf("wire %d touched %v outside footprint %v", w.ID, p, fp)
			}
		}
	}
}

// TestFootprintCoversRunSums is the containment theorem on the path part
// actually runs: a plain array, costed by run sums, which no view can
// watch. Inside the wire's footprint both arrays hold the same random
// costs; outside, one holds zeros and the other large random values. A
// candidate that read outside would cost ~2^24 more per cell in the
// second, so the wire must evaluate to the same Eval (cost, cells
// examined, path) on both. Runs on bnrE and the 10x preset.
func TestFootprintCoversRunSums(t *testing.T) {
	params := route.DefaultParams()
	for _, c := range []*circuit.Circuit{genCircuit(t, circuit.BnrELike, 7), scaledCircuit(t)} {
		g := c.Grid
		rng := rand.New(rand.NewSource(31))
		inside, poison, zero := make([]int32, g.Cells()), make([]int32, g.Cells()), make([]int32, g.Cells())
		for i := range inside {
			inside[i] = rng.Int31n(1 << 10)
			poison[i] = 1<<24 + rng.Int31n(1<<24)
		}
		clean, dirty := costarray.New(g), costarray.New(g)
		copy(dirty.Cells(), poison)
		s := route.NewScratch(g)
		for i := range c.Wires {
			w := &c.Wires[i]
			fp := Footprint(w, params, g)
			copyRect(clean, fp, inside)
			copyRect(dirty, fp, inside)
			want := s.RouteWire(route.ArrayView{A: clean}, w, params)
			got := s.RouteWire(route.ArrayView{A: dirty}, w, params)
			if got.Cost != want.Cost || got.CellsExamined != want.CellsExamined || !slices.Equal(got.Path.Cells, want.Path.Cells) {
				t.Fatalf("%s wire %d (footprint %v) reads outside it: poisoned %d/%d %v, zeroed %d/%d %v", c.Name, w.ID, fp,
					got.Cost, got.CellsExamined, got.Path.Cells, want.Cost, want.CellsExamined, want.Path.Cells)
			}
			copyRect(clean, fp, zero)
			copyRect(dirty, fp, poison)
		}
	}
}

// copyRect copies the cells of rect r from the row-major src into a.
func copyRect(a *costarray.CostArray, r geom.Rect, src []int32) {
	for y := r.Y0; y < r.Y1; y++ {
		lo, hi := a.Index(r.X0, y), a.Index(r.X1-1, y)+1
		copy(a.Cells()[lo:hi], src[lo:hi])
	}
}

// touchView records every cell the kernel reads (as a route.ReadObserver)
// or writes (as a route.CostView).
type touchView struct {
	arr     *costarray.CostArray
	touched []geom.Point
}

func (v *touchView) ReadRun(x, y, dx, dy, n int) {
	for ; n > 0; n-- {
		v.touched = append(v.touched, geom.Pt(x, y))
		x, y = x+dx, y+dy
	}
}

func (v *touchView) AddCell(i int, d int32) {
	v.touched = append(v.touched, v.arr.Grid().Point(i))
	v.arr.Cells()[i] += d
}
