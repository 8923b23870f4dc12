package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
)

// walkChecker is a ReadObserver that expands every run it is told of
// into its cells and matches them, in order, against a reference walk
// (refRoute), noting the first run that breaks the contract or strays
// from the walk.
type walkChecker struct {
	walk  [][]geom.Point
	i, j  int // the next cell expected is walk[i][j]
	reads int
	runs  int
	bad   string
}

func (o *walkChecker) ReadRun(x, y, dx, dy, n int) {
	o.runs++
	if o.bad != "" {
		return
	}
	if n < 1 || dx*dx+dy*dy != 1 {
		o.bad = fmt.Sprintf("run %d: %d cells from (%d,%d) step (%d,%d)", o.runs, n, x, y, dx, dy)
		return
	}
	for ; n > 0; n-- {
		if o.i == len(o.walk) || o.walk[o.i][o.j] != geom.Pt(x, y) {
			o.bad = fmt.Sprintf("read %d at (%d,%d) is not the reference walk's", o.reads, x, y)
			return
		}
		if o.j++; o.j == len(o.walk[o.i]) {
			o.i, o.j = o.i+1, 0
		}
		o.reads++
		x, y = x+dx, y+dy
	}
}

// finish reports what is wrong with the observed reads, if anything,
// once the routing is done: the walk must have been read to its end.
func (o *walkChecker) finish() string {
	if o.bad == "" && o.i != len(o.walk) {
		o.bad = fmt.Sprintf("%d reads observed, the reference walk is %d candidates long and stopped at %d", o.reads, len(o.walk), o.i)
	}
	return o.bad
}

// randomView is a channels x grids array of costs in [-3, 5]: MP views
// hold negative entries between delta applications, so the costings
// must agree on them too.
func randomView(rng *rand.Rand, channels, grids int) ArrayView {
	v := emptyView(channels, grids)
	for i := range v.A.Cells() {
		v.A.Cells()[i] = int32(rng.Intn(9) - 3)
	}
	return v
}

// checkMatchesReference routes pins as a wire, and its first two pins
// as a pair in both orders, on the kernel and on the reference kernel
// (refRoute), and requires the same Eval: cost, cells examined and every
// path cell. Routed again with a ReadObserver, the kernel must return
// the same Eval, and the observer's runs, expanded cell by cell, must be
// the reference walk: the cells of every candidate in enumeration order,
// the same cells in the same order with the same count.
func checkMatchesReference(t *testing.T, v ArrayView, pins []geom.Point, params Params) {
	t.Helper()
	var s Scratch
	check := func(what string, pins []geom.Point, route func() Eval) {
		t.Helper()
		want, walk := refRoute(v.A, pins, params)
		s.Observe(nil)
		if got := route(); !evalsEqual(got, want) {
			t.Fatalf("%s %v on %v, %+v:\nrun sums  %+v\nreference %+v", what, pins, v.A.Grid(), params, got, want)
		}
		obs := &walkChecker{walk: walk}
		s.Observe(obs)
		if got := route(); !evalsEqual(got, want) {
			t.Fatalf("%s %v on %v, %+v observed:\nrun sums  %+v\nreference %+v", what, pins, v.A.Grid(), params, got, want)
		}
		if bad := obs.finish(); bad != "" || obs.reads != want.CellsExamined || obs.runs > 3*len(walk) {
			t.Fatalf("%s %v on %v, %+v: %d reads in %d runs of %d candidates, %d examined: %s",
				what, pins, v.A.Grid(), params, obs.reads, obs.runs, len(walk), want.CellsExamined, bad)
		}
	}
	w := &circuit.Wire{ID: 1, Pins: pins}
	check("RouteWire", pins, func() Eval { return s.RouteWire(v, w, params) })
	for _, pair := range [][2]geom.Point{{pins[0], pins[1]}, {pins[1], pins[0]}} {
		check("RoutePair", pair[:], func() Eval { return s.RoutePair(v, pair[0], pair[1], params) })
	}
}

// The run-sum costing must be indistinguishable from the reference walk
// of materialised candidates on random arrays, grids, wires and
// parameters (negative detours, which shrink the VHV band inside the
// pins, included), and so must what an observer is told.
func TestFlatSegmentMatchesWalker(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 2000; trial++ {
		channels, grids := 1+rng.Intn(12), 1+rng.Intn(90)
		v := randomView(rng, channels, grids)
		pins := make([]geom.Point, 2+rng.Intn(4))
		for i := range pins {
			pins[i] = geom.Pt(rng.Intn(grids), rng.Intn(channels))
		}
		params := Params{MaxHVHCandidates: rng.Intn(30), VHVDetourChannels: rng.Intn(9) - 2}
		checkMatchesReference(t, v, pins, params)
	}
}

// Long segments: on a 30 x 1364 grid, the 10x preset's, spans reach 1363
// columns and the HVH stride 57, so the chunks each pin row is summed in
// between samples are long and run the unrolled body of sum4. The first
// trial spans the whole grid.
func TestFlatSegmentLongSpans(t *testing.T) {
	const channels, grids = 30, 1364
	rng := rand.New(rand.NewSource(31))
	v := randomView(rng, channels, grids)
	for trial := 0; trial < 200; trial++ {
		pins := make([]geom.Point, 2+rng.Intn(3))
		for i := range pins {
			pins[i] = geom.Pt(rng.Intn(grids), rng.Intn(channels))
		}
		if trial == 0 {
			pins[0].X, pins[1].X = 0, grids-1
		}
		params := Params{MaxHVHCandidates: DefaultHVHCandidates + rng.Intn(7), VHVDetourChannels: rng.Intn(4)}
		checkMatchesReference(t, v, pins, params)
	}
}

// FuzzFlatSegment is TestFlatSegmentMatchesWalker and
// TestWinnerRunsMatchWalker under the fuzzer: the run sums, the trace
// seam (the runs a ReadObserver is told) and the winner's runs against
// the reference kernel. The seed corpus is the edge cases, so plain `go
// test` runs them: one channel, one grid column, p == q, same row, same
// column, same column with a detour (the two verticals overlap beyond
// the pins and are read twice), MaxHVHCandidates 1, 2, 3, 24 and beyond
// the span with VHVDetourChannels 0, 1 and 5, and spans beyond 4 x
// MaxHVHCandidates, whose pin rows are summed in chunks of several
// cells.
func FuzzFlatSegment(f *testing.F) {
	for _, c := range []struct {
		channels, grids, px, py, qx, qy, maxHVH, detour uint8
	}{
		{1, 40, 3, 0, 30, 0, 24, 1},  // one channel
		{8, 1, 0, 2, 0, 6, 24, 1},    // one grid column
		{1, 1, 0, 0, 0, 0, 24, 5},    // one cell
		{6, 30, 7, 3, 7, 3, 24, 1},   // p == q
		{6, 30, 2, 4, 25, 4, 3, 0},   // same row
		{9, 30, 12, 1, 12, 7, 24, 0}, // same column
		{12, 30, 12, 4, 12, 6, 24, 5},
		{10, 60, 50, 8, 2, 1, 1, 1},
		{10, 60, 2, 1, 50, 8, 2, 5},
		{10, 60, 9, 0, 40, 9, 3, 1},
		{10, 60, 0, 5, 59, 2, 24, 0},
		{10, 60, 20, 3, 26, 7, 200, 5},
		{12, 90, 0, 3, 89, 9, 5, 1}, // stride 18
		{6, 90, 1, 0, 88, 5, 20, 2}, // stride 5
		{3, 90, 89, 2, 0, 0, 7, 0},  // stride 13, pins reversed
		{9, 90, 4, 4, 86, 4, 6, 3},  // stride 14, one pin row
	} {
		f.Add(int64(c.px)*7+int64(c.qy), c.channels, c.grids, c.px, c.py, c.qx, c.qy, c.maxHVH, c.detour)
	}
	f.Fuzz(func(t *testing.T, seed int64, channels, grids, px, py, qx, qy, maxHVH, detour uint8) {
		ch, gr := max(1, int(channels)%13), max(1, int(grids)%91)
		rng := rand.New(rand.NewSource(seed))
		v := randomView(rng, ch, gr)
		p := geom.Pt(int(px)%gr, int(py)%ch)
		q := geom.Pt(int(qx)%gr, int(qy)%ch)
		params := Params{MaxHVHCandidates: int(maxHVH), VHVDetourChannels: int(detour) % 8}
		r := geom.Pt(rng.Intn(gr), rng.Intn(ch))
		checkMatchesReference(t, v, []geom.Point{p, q}, params)
		checkMatchesReference(t, v, []geom.Point{p, q, r}, params)
		checkAllWinners(t, v.A.Grid(), p, q)
	})
}

// routeSegment reads a negative running best as "no candidate yet", so
// a later, dearer candidate replaces a cheaper negative one. The paper
// tables depend on it; this pins the quirk on the kernel and the
// reference until a change that re-pins their sha256 corrects it.
func TestNegativeBestIsReplaced(t *testing.T) {
	v := emptyView(3, 4)
	v.A.Set(1, 1, -10)
	// Every HVH candidate and VHV through channel 1 is row 1 at cost -10;
	// VHV through channel 0 or 2 costs 0. Channel 2 is enumerated last.
	p, q := geom.Pt(0, 1), geom.Pt(3, 1)
	params := Params{MaxHVHCandidates: DefaultHVHCandidates, VHVDetourChannels: 1}
	ref, _ := refRoute(v.A, []geom.Point{p, q}, params)
	for name, ev := range map[string]Eval{"kernel": routeFresh(v, wire(p, q), params), "reference": ref} {
		if ev.Cost != 0 || !pathSet(v.A.Grid(), ev.Path)[geom.Pt(1, 2)] {
			t.Errorf("%s: cost %d via %v, want the dearer cost-0 detour through channel 2", name, ev.Cost, ev.Path.Cells)
		}
		if ev.CellsExamined != 4*4+6+4+6 {
			t.Errorf("%s: %d cells examined, want 32", name, ev.CellsExamined)
		}
	}
}

// SortedPins allocates nothing on sorted or unsorted wires once its
// buffer has grown, returns sorted pins either way, and neither it nor
// SortPins reorders the wire's own pins.
func TestSortedPinsAllocatesNothing(t *testing.T) {
	s := NewScratch(geom.Grid{Channels: 6, Grids: 60})
	in := []geom.Point{geom.Pt(50, 4), geom.Pt(3, 1), geom.Pt(20, 5), geom.Pt(3, 0)}
	unsorted := &circuit.Wire{ID: 1, Pins: slices.Clone(in)}
	sorted := &circuit.Wire{ID: 2, Pins: SortPins(unsorted.Pins)}
	want := []geom.Point{geom.Pt(3, 0), geom.Pt(3, 1), geom.Pt(20, 5), geom.Pt(50, 4)}
	if !slices.Equal(sorted.Pins, want) || !slices.Equal(unsorted.Pins, in) {
		t.Fatalf("SortPins(%v) = %v, want %v and its argument unchanged", in, sorted.Pins, want)
	}
	for _, w := range []*circuit.Wire{sorted, unsorted} {
		if got := s.SortedPins(w); !slices.Equal(got, want) {
			t.Fatalf("SortedPins(%v) = %v, want %v", w.Pins, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.SortedPins(w) }); allocs != 0 {
			t.Errorf("SortedPins on wire %d costs %.1f allocs, want 0", w.ID, allocs)
		}
	}
	if !slices.Equal(unsorted.Pins, in) {
		t.Fatalf("SortedPins reordered the wire's pins: %v", unsorted.Pins)
	}
}

// spanCells expands runs into their cells, in order.
func spanCells(runs [3]span) []geom.Point {
	var cells []geom.Point
	for _, r := range runs {
		for k := range r.n {
			cells = append(cells, geom.Pt(r.x+k*r.dx, r.y+k*r.dy))
		}
	}
	return cells
}

// checkWinnerRuns requires the runs of candidate m (what an observer is
// told and the winner is written from) to be the reference path's
// cells, in order, and Scratch.winner on one wire to write them less the
// cells the wire already holds (the detoured same-column VHV reads some
// twice).
func checkWinnerRuns(t *testing.T, s *Scratch, p, q geom.Point, vhv bool, m int) {
	t.Helper()
	want := refPath(p, q, vhv, m)
	if got := spanCells(candidate(p, q, vhv, m)); !slices.Equal(got, want) {
		t.Fatalf("runs of %v-%v vhv=%v m=%d on %v:\nruns      %v\nreference %v", p, q, vhv, m, s.grid, got, want)
	}
	var uniq []geom.Point
	for _, c := range want {
		if !slices.Contains(uniq, c) {
			uniq = append(uniq, c)
		}
	}
	s.beginWire()
	s.winner(p, q, vhv, m)
	if got := points(s.grid, Path{Cells: s.cells}); !slices.Equal(got, uniq) {
		t.Fatalf("winner %v-%v vhv=%v m=%d on %v:\nwinner    %v\nreference %v", p, q, vhv, m, s.grid, got, uniq)
	}
}

// checkAllWinners runs checkWinnerRuns for segment p-q through every jog
// column and every crossing channel of grid g.
func checkAllWinners(t *testing.T, g geom.Grid, p, q geom.Point) {
	t.Helper()
	s := NewScratch(g)
	for xm := 0; xm < g.Grids; xm++ {
		checkWinnerRuns(t, s, p, q, false, xm)
	}
	for ym := 0; ym < g.Channels; ym++ {
		checkWinnerRuns(t, s, p, q, true, ym)
	}
}

// The winner written as runs must be the reference path's cells in
// order, on random segments and on the edge cases: p == q, same row, same column,
// runs in both directions, and one-wide grids.
func TestWinnerRunsMatchWalker(t *testing.T) {
	for _, c := range []struct {
		g    geom.Grid
		p, q geom.Point
	}{
		{geom.Grid{Channels: 6, Grids: 30}, geom.Pt(7, 3), geom.Pt(7, 3)},
		{geom.Grid{Channels: 6, Grids: 30}, geom.Pt(2, 4), geom.Pt(25, 4)},
		{geom.Grid{Channels: 6, Grids: 30}, geom.Pt(25, 4), geom.Pt(2, 4)},
		{geom.Grid{Channels: 9, Grids: 30}, geom.Pt(12, 1), geom.Pt(12, 7)},
		{geom.Grid{Channels: 9, Grids: 30}, geom.Pt(12, 7), geom.Pt(12, 1)},
		{geom.Grid{Channels: 10, Grids: 60}, geom.Pt(50, 8), geom.Pt(2, 1)},
		{geom.Grid{Channels: 1, Grids: 40}, geom.Pt(3, 0), geom.Pt(30, 0)},
		{geom.Grid{Channels: 8, Grids: 1}, geom.Pt(0, 6), geom.Pt(0, 2)},
		{geom.Grid{Channels: 1, Grids: 1}, geom.Pt(0, 0), geom.Pt(0, 0)},
	} {
		checkAllWinners(t, c.g, c.p, c.q)
	}
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 300; trial++ {
		g := geom.Grid{Channels: 1 + rng.Intn(12), Grids: 1 + rng.Intn(50)}
		p := geom.Pt(rng.Intn(g.Grids), rng.Intn(g.Channels))
		q := geom.Pt(rng.Intn(g.Grids), rng.Intn(g.Channels))
		checkAllWinners(t, g, p, q)
	}
}

// RerouteWire must evaluate exactly as RouteWire does, and writing a
// wire's new path into its old path's storage must never touch another
// wire's path, over several rip-up-and-reroute iterations.
func TestRerouteWireNeverAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := emptyView(8, 120)
	wires := make([]circuit.Wire, 60)
	for i := range wires {
		pins := make([]geom.Point, 2+rng.Intn(3))
		for j := range pins {
			pins[j] = geom.Pt(rng.Intn(120), rng.Intn(8))
		}
		wires[i] = circuit.Wire{ID: i, Pins: pins}
	}
	s := NewScratch(v.A.Grid())
	params := DefaultParams()
	paths := make([]Path, len(wires))
	want := make([][]int32, len(wires))
	for iter := 0; iter < 4; iter++ {
		for i := range wires {
			RipUp(v, paths[i])
			fresh := routeFresh(v, &wires[i], params)
			ev := s.RerouteWire(v, &wires[i], params, paths[i])
			if !evalsEqual(ev, fresh) {
				t.Fatalf("iter %d wire %d: RerouteWire %+v != RouteWire %+v", iter, i, ev, fresh)
			}
			Commit(v, ev.Path)
			paths[i] = ev.Path
			want[i] = append(want[i][:0], ev.Path.Cells...)
			for j := range paths {
				if !evalsEqual(Eval{Path: paths[j]}, Eval{Path: Path{Cells: want[j]}}) {
					t.Fatalf("iter %d: rerouting wire %d changed wire %d's path", iter, i, j)
				}
			}
		}
	}
}

// A reroute whose winner fits the ripped-up path's storage allocates
// nothing: with the sort buffer grown, the Path copy was the kernel's
// only allocation.
func TestRerouteWireFitsAllocatesNothing(t *testing.T) {
	v := emptyView(6, 60)
	s := NewScratch(v.A.Grid())
	params := DefaultParams()
	w := &circuit.Wire{ID: 3, Pins: []geom.Point{geom.Pt(50, 4), geom.Pt(3, 1), geom.Pt(20, 5)}}
	prev := s.RouteWire(v, w, params).Path
	Commit(v, prev)
	allocs := testing.AllocsPerRun(100, func() {
		RipUp(v, prev)
		prev = s.RerouteWire(v, w, params, prev).Path
		Commit(v, prev)
	})
	if allocs != 0 {
		t.Errorf("reroute into a fitting path costs %.1f allocs, want 0", allocs)
	}
}
