package route

import (
	"math/rand"
	"slices"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
)

func evalsEqual(a, b Eval) bool {
	if a.Cost != b.Cost || a.CellsExamined != b.CellsExamined || a.Path.Len() != b.Path.Len() {
		return false
	}
	for i := range a.Path.Cells {
		if a.Path.Cells[i] != b.Path.Cells[i] {
			return false
		}
	}
	return true
}

// A reused Scratch must produce exactly the evaluation a fresh one does,
// wire after wire, on a congested array — cost, work count, and the cell
// sequence of the path.
func TestScratchReuseMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	v := emptyView(8, 120)
	for i := 0; i < 400; i++ {
		v.A.Add(rng.Intn(120), rng.Intn(8), int32(rng.Intn(5)))
	}
	s := NewScratch(v.A.Grid())
	for trial := 0; trial < 200; trial++ {
		nPins := 2 + rng.Intn(3)
		pins := make([]geom.Point, nPins)
		for i := range pins {
			pins[i] = geom.Pt(rng.Intn(120), rng.Intn(8))
		}
		w := &circuit.Wire{ID: trial, Pins: pins}
		got := s.RouteWire(v, w, DefaultParams())
		want := routeFresh(v, w, DefaultParams())
		if !evalsEqual(got, want) {
			t.Fatalf("trial %d: scratch eval %+v != standalone %+v", trial, got, want)
		}
		// Routing must also mutate the array the same way either path
		// would; commit some wires so later trials see congestion.
		if trial%3 == 0 {
			Commit(v, got.Path)
		}
	}
}

// The sort buffer is shared by every wire the scratch routes: a different
// wire with a recycled ID must route its own pins, and rerouting the
// first wire must reproduce its first routing.
func TestScratchPinCacheInvalidation(t *testing.T) {
	v := emptyView(6, 40)
	s := NewScratch(v.A.Grid())

	w1 := &circuit.Wire{ID: 7, Pins: []geom.Point{geom.Pt(30, 2), geom.Pt(5, 1)}}
	ev1 := s.RouteWire(v, w1, DefaultParams())
	if !pathSet(ev1.Path)[geom.Pt(30, 2)] || !pathSet(ev1.Path)[geom.Pt(5, 1)] {
		t.Fatalf("first wire path misses its pins: %v", ev1.Path.Cells)
	}

	// Same ID, different wire object and different pins.
	w2 := &circuit.Wire{ID: 7, Pins: []geom.Point{geom.Pt(10, 5), geom.Pt(20, 0)}}
	ev2 := s.RouteWire(v, w2, DefaultParams())
	set := pathSet(ev2.Path)
	if !set[geom.Pt(10, 5)] || !set[geom.Pt(20, 0)] {
		t.Fatalf("recycled-ID wire routed with stale pins: %v", ev2.Path.Cells)
	}
	if set[geom.Pt(5, 1)] {
		t.Fatalf("recycled-ID wire path contains the old wire's pin")
	}

	// Re-routing the first wire re-sorts its pins into the buffer.
	ev1b := s.RouteWire(v, w1, DefaultParams())
	if !evalsEqual(ev1, ev1b) {
		t.Fatalf("re-route differs: %+v vs %+v", ev1, ev1b)
	}
}

// RoutePair must match RouteWire on the equivalent two-pin wire, in both
// argument orders (the kernel canonicalises pin order itself).
func TestRoutePairMatchesTwoPinWire(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := emptyView(6, 60)
	for i := 0; i < 150; i++ {
		v.A.Add(rng.Intn(60), rng.Intn(6), int32(rng.Intn(4)))
	}
	s := NewScratch(v.A.Grid())
	for trial := 0; trial < 100; trial++ {
		a := geom.Pt(rng.Intn(60), rng.Intn(6))
		b := geom.Pt(rng.Intn(60), rng.Intn(6))
		want := routeFresh(v, &circuit.Wire{ID: trial, Pins: []geom.Point{a, b}}, DefaultParams())
		for _, pair := range [][2]geom.Point{{a, b}, {b, a}} {
			got := s.RoutePair(v, pair[0], pair[1], DefaultParams())
			if !evalsEqual(got, want) {
				t.Fatalf("trial %d: RoutePair(%v,%v) %+v != RouteWire %+v",
					trial, pair[0], pair[1], got, want)
			}
		}
	}
}

// One scratch must survive a change of grid size between calls (tests
// reuse scratches across arrays; production never does).
func TestScratchGridResize(t *testing.T) {
	small := emptyView(4, 20)
	big := emptyView(8, 200)
	s := NewScratch(small.A.Grid())

	w := &circuit.Wire{ID: 1, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(15, 3)}}
	if got, want := s.RouteWire(small, w, DefaultParams()), routeFresh(small, w, DefaultParams()); !evalsEqual(got, want) {
		t.Fatalf("small grid: %+v != %+v", got, want)
	}
	w2 := &circuit.Wire{ID: 2, Pins: []geom.Point{geom.Pt(5, 6), geom.Pt(180, 0)}}
	if got, want := s.RouteWire(big, w2, DefaultParams()), routeFresh(big, w2, DefaultParams()); !evalsEqual(got, want) {
		t.Fatalf("big grid: %+v != %+v", got, want)
	}
	if got, want := s.RouteWire(small, w, DefaultParams()), routeFresh(small, w, DefaultParams()); !evalsEqual(got, want) {
		t.Fatalf("back to small grid: %+v != %+v", got, want)
	}
}

// A candidate's runs (what an observer is told and the winner is written
// from) must be exactly the cells of the materialised reference path, in
// order — the invariant that keeps the trace and the winner identical to
// the paper's program's reads.
func TestWalkersMatchReferencePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		p := geom.Pt(rng.Intn(50), rng.Intn(8))
		q := geom.Pt(rng.Intn(50), rng.Intn(8))
		xm := min(p.X, q.X) + rng.Intn(absInt(p.X-q.X)+1)
		ym := rng.Intn(8)

		check := func(name string, ref []geom.Point, vhv bool, m int) {
			if got := spanCells(candidate(p, q, vhv, m)); !slices.Equal(got, ref) {
				t.Fatalf("trial %d %s: runs hold %v, reference %v", trial, name, got, ref)
			}
		}
		check("hvh", hvhPath(p, q, xm), false, xm)
		check("vhv", vhvPath(p, q, ym), true, ym)
	}
}

// cellWriter is a CostView that is not a plain ArrayView, though it
// writes through one: Commit and RipUp write it cell by cell through
// AddCost, as they write the message passing and traced views.
type cellWriter struct{ ArrayView }

// Place must return PathCost and leave the array Commit leaves, and
// Commit and RipUp must write a plain ArrayView as they write any other
// CostView, cell by cell.
func TestPlaceEqualsPathCostThenCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 300; trial++ {
		v := randomView(rng, 1+rng.Intn(10), 1+rng.Intn(60))
		pins := make([]geom.Point, 2+rng.Intn(4))
		for i := range pins {
			pins[i] = geom.Pt(rng.Intn(v.A.Grid().Grids), rng.Intn(v.A.Grid().Channels))
		}
		path := routeFresh(v, &circuit.Wire{Pins: pins}, DefaultParams()).Path
		placed, flat, cell := v.A.Clone(), ArrayView{A: v.A.Clone()}, cellWriter{ArrayView{A: v.A.Clone()}}
		if cost, want := Place(placed, path), PathCost(v.A, path); cost != want {
			t.Fatalf("trial %d: Place cost %d, PathCost %d", trial, cost, want)
		}
		Commit(flat, path)
		Commit(cell, path)
		if !placed.Equal(flat.A) || !placed.Equal(cell.A) {
			t.Fatalf("trial %d: Place and Commit leave different arrays", trial)
		}
		RipUp(flat, path)
		RipUp(cell, path)
		if !flat.A.Equal(v.A) || !cell.A.Equal(v.A) {
			t.Fatalf("trial %d: RipUp does not undo Commit", trial)
		}
	}
}

// A pooled Get/RouteWire/Put cycle stays at the reused-scratch allocation
// floor (the caller-owned Path copy: BENCHMARK.json's exact
// route.allocs_per_wire = 1), not the 12 allocs/op of a fresh Scratch
// per wire.
func TestScratchPoolAllocs(t *testing.T) {
	c := circuit.MustGenerate(circuit.BnrELike(7))
	view := ArrayView{A: costarray.New(c.Grid)}
	params := DefaultParams()
	w := &c.Wires[17]
	PutScratch(GetScratch(c.Grid)) // warm the grid's pool
	avg := testing.AllocsPerRun(200, func() {
		s := GetScratch(c.Grid)
		s.RouteWire(view, w, params)
		PutScratch(s)
	})
	if raceEnabled {
		// The pooled path still ran above for data-race coverage; only
		// the count is skipped — under the race detector sync.Pool drops
		// puts at random, so Get allocates fresh scratches.
		t.Skip("allocation counts are inflated under the race detector; the <=2 pin runs in the non-race suite")
	}
	// One allocation is inherent (takePath's caller-owned copy); allow
	// one more for pool-internal noise.
	if avg > 2 {
		t.Errorf("pooled route cycle costs %.1f allocs/op, want <= 2 (fresh Scratch costs 12)", avg)
	}
}

// The pool is segregated by grid: a scratch put back for one grid shape
// is never handed out for another, so alternating circuits cannot
// thrash each other's visited arrays, and putting nil is a no-op.
func TestScratchPoolPerGrid(t *testing.T) {
	gA := geom.Grid{Channels: 10, Grids: 341}
	gB := geom.Grid{Channels: 12, Grids: 386}
	a := GetScratch(gA)
	PutScratch(a)
	b := GetScratch(gB)
	if a == b || b.grid != gB {
		t.Fatalf("pool handed a scratch sized for %v out for %v", a.grid, gB)
	}
	PutScratch(b)
	PutScratch(nil)
}

// The first GetScratch of a grid the process has never routed returns a
// scratch sized for it.
func TestScratchPoolNewGrid(t *testing.T) {
	g := geom.Grid{Channels: 4, Grids: 17}
	s := GetScratch(g)
	if s == nil || s.grid != g || len(s.visited) != g.Cells() {
		t.Fatalf("GetScratch(%v) = %+v, want a scratch sized for it", g, s)
	}
	PutScratch(s)
}
