package part

import (
	"math"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/route"
)

// TestNegotiatedConvergedWhenUncongested: with a capacity no cell can
// exceed, the schedule finishes after the initial pass with zero
// overuse and no reroutes.
func TestNegotiatedConvergedWhenUncongested(t *testing.T) {
	c := genCircuit(t, circuit.BnrELike, 1)
	res, _, st, err := Route(c, route.DefaultParams(), Config{
		Partitions: 1,
		Negotiated: &Negotiated{Capacity: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NegotiatedIters != 1 {
		t.Errorf("NegotiatedIters %d, want 1", st.NegotiatedIters)
	}
	if st.OverusedCells != 0 {
		t.Errorf("OverusedCells %d, want 0", st.OverusedCells)
	}
	if res.WiresRouted != len(c.Wires) {
		t.Errorf("WiresRouted %d, want one pass over %d wires", res.WiresRouted, len(c.Wires))
	}
	if st.PresFacFinal != 0.5 {
		t.Errorf("PresFacFinal %v, want unescalated default 0.5", st.PresFacFinal)
	}
}

// TestNegotiatedReroutesUnderPressure: with a tight capacity the
// schedule must run extra passes, escalate pres_fac, and reduce the
// total overflow (sum of occupancy above capacity) relative to the
// congestion-blind initial pass. The overused-*cell* count may rise —
// spreading a badly over-capacity cell across several slightly-over
// cells is exactly the negotiation working — so the assertion is on the
// overflow mass, the quantity PathFinder actually minimises.
func TestNegotiatedReroutesUnderPressure(t *testing.T) {
	c := genCircuit(t, circuit.BnrELike, 1)
	params := route.DefaultParams()

	// Reference: the initial pass alone (MaxIters 1) at the same capacity.
	const capacity = 4
	first, arr1, st1, err := Route(c, params, Config{
		Partitions: 1,
		Negotiated: &Negotiated{Capacity: capacity, MaxIters: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, arr, st, err := Route(c, params, Config{
		Partitions: 1,
		Negotiated: &Negotiated{Capacity: capacity},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st1.OverusedCells == 0 {
		t.Fatalf("capacity %d leaves no overuse on bnrE; test needs a tighter bound", capacity)
	}
	if st.NegotiatedIters <= 1 {
		t.Errorf("NegotiatedIters %d, want reroute passes beyond the initial one", st.NegotiatedIters)
	}
	if st.NegotiatedIters > 16 {
		t.Errorf("NegotiatedIters %d exceeds the default bound", st.NegotiatedIters)
	}
	if o1, o := overflowSum(arr1, capacity), overflowSum(arr, capacity); o >= o1 {
		t.Errorf("negotiation did not reduce overflow: %d -> %d", o1, o)
	}
	if st.PresFacFinal <= st1.PresFacFinal {
		t.Errorf("pres_fac did not escalate: %v -> %v", st1.PresFacFinal, st.PresFacFinal)
	}
	if full.WiresRouted <= first.WiresRouted {
		t.Errorf("no rerouting happened: %d vs %d wire routings", full.WiresRouted, first.WiresRouted)
	}
}

// TestNegotiatedRipUpLimitedToCongestedRegion pins the advertised
// rip-up discipline under partitioning: reroute passes touch only wires
// crossing overused cells, so tree nodes with no such wires route
// nothing. The circuit is built by hand so congestion is provably
// confined to one leaf: a 40x8 grid bisects at x=20; five identical
// flat wires stack on channel 1 of the left region (overused at
// capacity 1, and with zero detour allowance they have no alternative
// path, so the schedule never converges and runs every pass), while
// three wires in the right region occupy disjoint channels and never
// cross an overused cell. Every reroute pass must therefore route
// exactly the five congested wires — a regression guard against
// treating an absent per-node reroute set as "reroute everything".
func TestNegotiatedRipUpLimitedToCongestedRegion(t *testing.T) {
	g := geom.Grid{Grids: 40, Channels: 8}
	c := &circuit.Circuit{Name: "confined-congestion", Grid: g}
	add := func(x0, y0, x1, y1 int) {
		c.Wires = append(c.Wires, circuit.Wire{
			ID:   len(c.Wires),
			Pins: []circuit.Pin{geom.Pt(x0, y0), geom.Pt(x1, y1)},
		})
	}
	const congested = 5
	for k := 0; k < congested; k++ {
		add(2, 1, 8, 1)
	}
	add(25, 2, 30, 2)
	add(25, 4, 30, 4)
	add(25, 6, 30, 6)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	params := route.Params{Iterations: 1, VHVDetourChannels: 0}
	res, _, st, err := Route(c, params, Config{
		Partitions: 2,
		Negotiated: &Negotiated{Capacity: 1, MaxIters: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 2 || st.BoundaryWires != 0 {
		t.Fatalf("test premise broken: want 2 leaves and no boundary wires, got %+v", st)
	}
	if st.NegotiatedIters <= 1 {
		t.Fatalf("NegotiatedIters %d: expected reroute passes (left region is overused)", st.NegotiatedIters)
	}
	if st.OverusedCells == 0 {
		t.Fatal("expected the stacked wires to stay overused (they have no alternative path)")
	}
	want := len(c.Wires) + (st.NegotiatedIters-1)*congested
	if res.WiresRouted != want {
		t.Errorf("WiresRouted %d, want %d (initial pass over %d wires + %d reroute passes over the %d congested wires only)",
			res.WiresRouted, want, len(c.Wires), st.NegotiatedIters-1, congested)
	}
}

// overflowSum is the total occupancy above capacity across the array.
func overflowSum(a *costarray.CostArray, capacity int32) int64 {
	var s int64
	for _, v := range a.Cells() {
		if v > capacity {
			s += int64(v - capacity)
		}
	}
	return s
}

// TestNegotiatedDeterministic: both the sequential-shaped and the
// partitioned negotiated runs must be pure functions of their inputs.
func TestNegotiatedDeterministic(t *testing.T) {
	c := genCircuit(t, circuit.BnrELike, 2)
	params := route.DefaultParams()
	for _, parts := range []int{1, 4} {
		res1, arr1, st1, err := Route(c, params, Config{Partitions: parts, Negotiated: &Negotiated{}})
		if err != nil {
			t.Fatal(err)
		}
		res2, arr2, st2, err := Route(c, params, Config{Partitions: parts, Negotiated: &Negotiated{}})
		if err != nil {
			t.Fatal(err)
		}
		if res1 != res2 {
			t.Errorf("partitions %d: results differ: %+v vs %+v", parts, res1, res2)
		}
		if !arr1.Equal(arr2) {
			t.Errorf("partitions %d: cost arrays differ between identical runs", parts)
		}
		if st1.NegotiatedIters != st2.NegotiatedIters || st1.OverusedCells != st2.OverusedCells {
			t.Errorf("partitions %d: schedule stats differ: %+v vs %+v", parts, st1, st2)
		}
	}
}

// TestNegotiatedAutoCapacity: the auto rule is the ceiling of average
// committed occupancy, at least 1, computed after the initial pass.
func TestNegotiatedAutoCapacity(t *testing.T) {
	c := genCircuit(t, circuit.MDCLike, 1)
	_, arr, st, err := Route(c, route.DefaultParams(), Config{Partitions: 1, Negotiated: &Negotiated{}})
	if err != nil {
		t.Fatal(err)
	}
	if st.NegotiatedIters < 1 {
		t.Errorf("NegotiatedIters %d", st.NegotiatedIters)
	}
	// After the full schedule, overuse is measured against the auto
	// capacity; it must be no greater than the total number of occupied
	// cells (sanity) and the run must have committed every wire.
	if st.OverusedCells > arr.NonZeroCells() {
		t.Errorf("OverusedCells %d exceeds occupied cells %d", st.OverusedCells, arr.NonZeroCells())
	}
}

// TestNegotiatedPriceMatchesFormula: after every negotiated pass, each
// cell of the materialised price array holds the negotiated cost
// function over the occupancy and history arrays — rip-up and placement
// refresh the cells they move, and a schedule change rebuilds them all.
// A run stopped after k passes leaves the state of pass k; on four
// partitions the boundary wires' conflict-order refreshes count too.
func TestNegotiatedPriceMatchesFormula(t *testing.T) {
	c := genCircuit(t, circuit.BnrELike, 1)
	params := route.DefaultParams()
	for _, capacity := range []int32{0, 4} {
		for k := 1; k <= 5; k++ {
			r, _, st, err := run(c, params, Config{Partitions: 4, Negotiated: &Negotiated{Capacity: capacity, MaxIters: k}})
			if err != nil {
				t.Fatal(err)
			}
			if st.NegotiatedIters != k {
				t.Fatalf("capacity %d: %d passes, want %d", capacity, st.NegotiatedIters, k)
			}
			nv := r.neg
			// The initial pass of an auto-capacity run prices with the
			// pressure term off; the capacity is set after it.
			pressure := nv.capacity
			if capacity <= 0 && k == 1 {
				pressure = 0
			}
			for i, got := range nv.price.Cells() {
				want := int64(1) + int64(nv.hist[i])
				if over := int64(nv.occ.Cells()[i]) - int64(pressure) + 1; pressure > 0 && over > 0 {
					want += int64(min(nv.presFac*float64(over), math.MaxInt32/2))
				}
				if want = min(want, math.MaxInt32); int64(got) != want {
					t.Fatalf("capacity %d, pass %d: cell %d (occupancy %d, history %d) priced %d, want %d",
						capacity, k, i, nv.occ.Cells()[i], nv.hist[i], got, want)
				}
			}
		}
	}
}
