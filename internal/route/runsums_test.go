package route

import (
	"math/rand"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
)

// walkerView hides an ArrayView behind another concrete type, so the
// kernel costs candidates with the walker — the path every observing
// view (traced, live, negotiated) takes, and the reference the run-sum
// path must match.
type walkerView struct{ ArrayView }

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

// checkFlatMatchesWalker routes pins as a wire, and its first two pins
// as a pair in both orders, on the run-sum and the walker path, and
// requires the same Eval: cost, cells examined and every path cell.
func checkFlatMatchesWalker(t *testing.T, v ArrayView, pins []geom.Point, params Params) {
	t.Helper()
	var flat, walk Scratch
	w := &circuit.Wire{ID: 1, Pins: pins}
	if got, want := flat.RouteWire(v, w, params), walk.RouteWire(walkerView{v}, w, params); !evalsEqual(got, want) {
		t.Fatalf("RouteWire %v on %v, %+v:\nrun sums %+v\nwalker   %+v", pins, v.Grid(), params, got, want)
	}
	for _, pair := range [][2]geom.Point{{pins[0], pins[1]}, {pins[1], pins[0]}} {
		got := flat.RoutePair(v, pair[0], pair[1], params)
		want := walk.RoutePair(walkerView{v}, pair[0], pair[1], params)
		if !evalsEqual(got, want) {
			t.Fatalf("RoutePair %v on %v, %+v:\nrun sums %+v\nwalker   %+v", pair, v.Grid(), params, got, want)
		}
	}
}

// The run-sum costing must be indistinguishable from the walker on
// random arrays, grids, wires and parameters (negative detours, which
// shrink the VHV band inside the pins, included).
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
		checkFlatMatchesWalker(t, v, pins, params)
	}
}

// FuzzFlatSegment is TestFlatSegmentMatchesWalker under the fuzzer. The
// seed corpus is the edge cases, so plain `go test` runs them: one
// channel, one grid column, p == q, same row, same column, same column
// with a detour (the two verticals overlap beyond the pins and the
// walker counts those cells twice), and MaxHVHCandidates 1, 2, 3, 24
// and beyond the span with VHVDetourChannels 0, 1 and 5.
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
		checkFlatMatchesWalker(t, v, []geom.Point{p, q}, params)
		checkFlatMatchesWalker(t, v, []geom.Point{p, q, geom.Pt(rng.Intn(gr), rng.Intn(ch))}, params)
	})
}

// routeSegment reads a negative running best as "no candidate yet", so
// a later, dearer candidate replaces a cheaper negative one. The paper
// tables depend on it; this pins the quirk on both costing paths until a
// change that re-pins their sha256 corrects it.
func TestNegativeBestIsReplaced(t *testing.T) {
	v := emptyView(3, 4)
	v.A.Set(1, 1, -10)
	// Every HVH candidate and VHV through channel 1 is row 1 at cost -10;
	// VHV through channel 0 or 2 costs 0. Channel 2 is enumerated last.
	p, q := geom.Pt(0, 1), geom.Pt(3, 1)
	params := Params{MaxHVHCandidates: DefaultHVHCandidates, VHVDetourChannels: 1}
	for _, view := range []CostView{v, walkerView{v}} {
		ev := RouteWire(view, wire(p, q), params)
		if ev.Cost != 0 || !pathSet(ev.Path)[geom.Pt(1, 2)] {
			t.Errorf("%T: cost %d via %v, want the dearer cost-0 detour through channel 2", view, ev.Cost, ev.Path.Cells)
		}
		if ev.CellsExamined != 4*4+6+4+6 {
			t.Errorf("%T: %d cells examined, want 32", view, ev.CellsExamined)
		}
	}
}

// Only sorted copies the scratch had to make are cached: wires that are
// routed once with pins already in order — what locusd and the store
// hand the kernel — leave nothing behind, and SortPins never reorders
// its argument.
func TestSortedPinsCachesOnlyCopies(t *testing.T) {
	v := emptyView(6, 60)
	s := NewScratch(v.Grid())
	const n = 1000
	for id := 0; id < n; id++ {
		unsorted := []geom.Point{geom.Pt(50, 4), geom.Pt(id%40, 1), geom.Pt(20, 5)}
		sorted := SortPins(unsorted)
		if unsorted[0] != geom.Pt(50, 4) || unsorted[1] != geom.Pt(id%40, 1) {
			t.Fatalf("SortPins reordered its argument: %v", unsorted)
		}
		s.RouteWire(v, &circuit.Wire{ID: id, Pins: sorted}, DefaultParams())
	}
	if len(s.pins) != 0 {
		t.Fatalf("%d one-shot sorted wires left %d pin-cache entries, want 0", n, len(s.pins))
	}
	w := &circuit.Wire{ID: 3, Pins: []geom.Point{geom.Pt(50, 4), geom.Pt(3, 1)}}
	if a, b := s.SortedPins(w), s.SortedPins(w); &a[0] != &b[0] || len(s.pins) != 1 {
		t.Fatalf("an unsorted wire's sorted copy was not cached (%d entries)", len(s.pins))
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
	s := NewScratch(v.Grid())
	params := DefaultParams()
	paths := make([]Path, len(wires))
	want := make([][]geom.Point, len(wires))
	for iter := 0; iter < 4; iter++ {
		for i := range wires {
			RipUp(v, paths[i])
			fresh := RouteWire(v, &wires[i], params)
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
// nothing: with the sorted-pin cache warm, the Path copy was the
// kernel's only allocation.
func TestRerouteWireFitsAllocatesNothing(t *testing.T) {
	v := emptyView(6, 60)
	s := NewScratch(v.Grid())
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
