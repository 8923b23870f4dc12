package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
)

func emptyView(channels, grids int) ArrayView {
	return ArrayView{A: costarray.New(geom.Grid{Channels: channels, Grids: grids})}
}

func wire(pins ...geom.Point) *circuit.Wire {
	return &circuit.Wire{ID: 0, Pins: pins}
}

// routeFresh routes w with a scratch of its own: the reference a reused
// scratch must agree with.
func routeFresh(view ArrayView, w *circuit.Wire, params Params) Eval {
	var s Scratch
	return s.RouteWire(view, w, params)
}

// points decodes p's cell indices on grid g, in path order.
func points(g geom.Grid, p Path) []geom.Point {
	out := make([]geom.Point, len(p.Cells))
	for k, i := range p.Cells {
		out[k] = g.Point(int(i))
	}
	return out
}

func pathSet(g geom.Grid, p Path) map[geom.Point]bool {
	m := make(map[geom.Point]bool, len(p.Cells))
	for _, c := range points(g, p) {
		m[c] = true
	}
	return m
}

func TestRouteStraightHorizontal(t *testing.T) {
	v := emptyView(4, 20)
	ev := routeFresh(v, wire(geom.Pt(2, 1), geom.Pt(8, 1)), Params{Iterations: 1})
	if ev.Cost != 0 {
		t.Errorf("cost on empty array = %d, want 0", ev.Cost)
	}
	// Straight route: 7 cells from (2,1) to (8,1).
	if ev.Path.Len() != 7 {
		t.Errorf("path len = %d, want 7; cells=%v", ev.Path.Len(), ev.Path.Cells)
	}
	set := pathSet(v.A.Grid(), ev.Path)
	for x := 2; x <= 8; x++ {
		if !set[geom.Pt(x, 1)] {
			t.Errorf("missing cell (%d,1)", x)
		}
	}
}

func TestRouteLShaped(t *testing.T) {
	v := emptyView(6, 20)
	ev := routeFresh(v, wire(geom.Pt(2, 1), geom.Pt(10, 4)), Params{Iterations: 1})
	// Any minimal route has dx+dy+1 = 8+3+1 = 12 cells.
	if ev.Path.Len() != 12 {
		t.Errorf("path len = %d, want 12", ev.Path.Len())
	}
	set := pathSet(v.A.Grid(), ev.Path)
	if !set[geom.Pt(2, 1)] || !set[geom.Pt(10, 4)] {
		t.Errorf("path must contain both pins")
	}
}

func TestRouteAvoidsCongestion(t *testing.T) {
	v := emptyView(3, 10)
	// Block the straight channel between the pins with high cost.
	for x := 1; x <= 8; x++ {
		v.A.Set(x, 1, 100)
	}
	ev := routeFresh(v, wire(geom.Pt(0, 1), geom.Pt(9, 1)), Params{Iterations: 1, VHVDetourChannels: 2})
	// The router should detour through channel 0 or 2 rather than pay
	// 8*100 in channel 1.
	if ev.Cost >= 800 {
		t.Errorf("router did not avoid congestion: cost=%d path=%v", ev.Cost, ev.Path.Cells)
	}
	set := pathSet(v.A.Grid(), ev.Path)
	detour := false
	for c := range set {
		if c.Y != 1 {
			detour = true
		}
	}
	if !detour {
		t.Errorf("expected a detour out of channel 1")
	}
}

func TestRoutePrefersCheaperJog(t *testing.T) {
	v := emptyView(4, 12)
	// Two pins in different channels; make one jog column expensive.
	for y := 0; y < 4; y++ {
		v.A.Set(5, y, 50)
	}
	ev := routeFresh(v, wire(geom.Pt(2, 0), geom.Pt(9, 3)), Params{Iterations: 1})
	for _, c := range points(v.A.Grid(), ev.Path) {
		if c.X == 5 && c.Y > 0 && c.Y < 3 {
			t.Errorf("path jogs through expensive column 5: %v", points(v.A.Grid(), ev.Path))
		}
	}
}

func TestCommitRipUpInverse(t *testing.T) {
	v := emptyView(4, 20)
	ev := routeFresh(v, wire(geom.Pt(1, 0), geom.Pt(15, 3)), Params{Iterations: 1})
	Commit(v, ev.Path)
	if v.A.NonZeroCells() != ev.Path.Len() {
		t.Errorf("commit marked %d cells, path has %d", v.A.NonZeroCells(), ev.Path.Len())
	}
	RipUp(v, ev.Path)
	if v.A.NonZeroCells() != 0 {
		t.Errorf("ripup must restore zero array, %d cells remain", v.A.NonZeroCells())
	}
}

func TestMultiPinDecomposition(t *testing.T) {
	v := emptyView(4, 30)
	w := wire(geom.Pt(20, 2), geom.Pt(5, 1), geom.Pt(12, 3))
	ev := routeFresh(v, w, Params{Iterations: 1})
	set := pathSet(v.A.Grid(), ev.Path)
	for _, p := range w.Pins {
		if !set[p] {
			t.Errorf("multi-pin path must contain pin %v", p)
		}
	}
	// Dedup: no cell appears twice.
	if len(set) != ev.Path.Len() {
		t.Errorf("path has duplicate cells: %d unique of %d", len(set), ev.Path.Len())
	}
}

func TestRouteDeterministic(t *testing.T) {
	mk := func() Eval {
		v := emptyView(6, 40)
		v.A.Set(10, 2, 3)
		v.A.Set(11, 2, 3)
		return routeFresh(v, wire(geom.Pt(2, 1), geom.Pt(30, 4), geom.Pt(17, 0)), DefaultParams())
	}
	a, b := mk(), mk()
	if a.Cost != b.Cost || a.Path.Len() != b.Path.Len() {
		t.Fatalf("routing must be deterministic")
	}
	for i := range a.Path.Cells {
		if a.Path.Cells[i] != b.Path.Cells[i] {
			t.Fatalf("path cell %d differs", i)
		}
	}
}

func TestRouteCostMatchesArraySum(t *testing.T) {
	// The reported Cost must equal the sum of array values over the path
	// (the wire's own contribution is not in the array at choice time).
	v := emptyView(5, 25)
	for x := 0; x < 25; x++ {
		for y := 0; y < 5; y++ {
			v.A.Set(x, y, int32((x+y)%4))
		}
	}
	ev := routeFresh(v, wire(geom.Pt(3, 1), geom.Pt(20, 3)), Params{Iterations: 1})
	var want int64
	for _, c := range points(v.A.Grid(), ev.Path) {
		want += int64(v.A.At(c.X, c.Y))
	}
	if ev.Cost != want {
		t.Errorf("Cost = %d, path sum = %d", ev.Cost, want)
	}
}

func TestHVHStrideSamplesEndpoints(t *testing.T) {
	// Long segment with a cheap jog only at the far end; the stride
	// sampling must still find routes through the endpoints.
	v := emptyView(3, 200)
	ev := routeFresh(v, wire(geom.Pt(0, 0), geom.Pt(199, 2)), Params{Iterations: 1, MaxHVHCandidates: 8})
	if ev.Path.Len() == 0 {
		t.Fatalf("no path found")
	}
	set := pathSet(v.A.Grid(), ev.Path)
	if !set[geom.Pt(0, 0)] || !set[geom.Pt(199, 2)] {
		t.Errorf("path must contain both pins")
	}
}

func TestCellsExaminedPositive(t *testing.T) {
	v := emptyView(4, 50)
	ev := routeFresh(v, wire(geom.Pt(0, 0), geom.Pt(49, 3)), DefaultParams())
	if ev.CellsExamined < ev.Path.Len() {
		t.Errorf("CellsExamined = %d, must be at least the path length %d",
			ev.CellsExamined, ev.Path.Len())
	}
}

func TestPathBounds(t *testing.T) {
	v := emptyView(4, 20)
	ev := routeFresh(v, wire(geom.Pt(3, 1), geom.Pt(10, 2)), Params{Iterations: 1, VHVDetourChannels: 0})
	var bb geom.Rect
	for _, c := range points(v.A.Grid(), ev.Path) {
		bb = bb.AddPoint(c)
	}
	if !bb.ContainsRect(geom.R(3, 1, 10, 2)) {
		t.Errorf("path bounds %v must contain the pin box", bb)
	}
}

// Property: for a two-pin wire, the chosen path's consecutive cells are
// grid-adjacent (a connected route) and the path never costs more than
// the two baseline single-bend routes.
func TestRoutePathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 150; trial++ {
		v := emptyView(6, 48)
		for i := 0; i < 60; i++ {
			v.A.Add(rng.Intn(48), rng.Intn(6), int32(rng.Intn(4)))
		}
		p1 := geom.Pt(rng.Intn(48), rng.Intn(6))
		p2 := geom.Pt(rng.Intn(48), rng.Intn(6))
		if p1 == p2 {
			continue
		}
		ev := routeFresh(v, wire(p1, p2), DefaultParams())
		// Connectivity.
		cells := points(v.A.Grid(), ev.Path)
		for i := 1; i < len(cells); i++ {
			if cells[i-1].Manhattan(cells[i]) != 1 {
				t.Fatalf("trial %d: disconnected path at %d: %v -> %v",
					trial, i, cells[i-1], cells[i])
			}
		}
		// Endpoints present.
		set := pathSet(v.A.Grid(), ev.Path)
		if !set[p1] || !set[p2] {
			t.Fatalf("trial %d: endpoints missing", trial)
		}
		// Never worse than the two L-shaped baselines.
		for _, baseline := range [][]geom.Point{
			hvhPath(p1, p2, p1.X), // V then H ... via corner at p1.X
			hvhPath(p1, p2, p2.X), // H then V ... via corner at p2.X
		} {
			var cost int64
			for _, c := range baseline {
				cost += int64(v.A.At(c.X, c.Y))
			}
			if ev.Cost > cost {
				t.Fatalf("trial %d: chosen cost %d worse than baseline %d", trial, ev.Cost, cost)
			}
		}
	}
}

// Property: rip-up exactly undoes commit on arbitrary arrays.
func TestCommitRipUpProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := emptyView(5, 30)
		before := v.A.Clone()
		p1 := geom.Pt(rng.Intn(30), rng.Intn(5))
		p2 := geom.Pt(rng.Intn(30), rng.Intn(5))
		p3 := geom.Pt(rng.Intn(30), rng.Intn(5))
		ev := routeFresh(v, wire(p1, p2, p3), DefaultParams())
		Commit(v, ev.Path)
		RipUp(v, ev.Path)
		return v.A.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
