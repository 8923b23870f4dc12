package circuit

import (
	"testing"

	"locusroute/internal/geom"
)

func TestWireBoundsAndCost(t *testing.T) {
	w := Wire{ID: 0, Pins: []Pin{geom.Pt(10, 2), geom.Pt(30, 5), geom.Pt(20, 3)}}
	bb := w.Bounds()
	if bb != geom.R(10, 2, 30, 5) {
		t.Errorf("Bounds = %v", bb)
	}
	// Netlist-order polyline: (10,2)->(30,5) is 23, (30,5)->(20,3) is 12.
	if got := w.Cost(); got != 35 {
		t.Errorf("Cost = %d, want 35", got)
	}
}

func TestWireCostZeroLength(t *testing.T) {
	w := Wire{ID: 0, Pins: []Pin{geom.Pt(5, 5), geom.Pt(5, 5)}}
	if got := w.Cost(); got != 0 {
		t.Errorf("coincident pins cost = %d, want 0", got)
	}
}

func TestLeftmostPin(t *testing.T) {
	w := Wire{Pins: []Pin{geom.Pt(7, 1), geom.Pt(3, 9), geom.Pt(3, 2)}}
	if got := w.LeftmostPin(); got != geom.Pt(3, 2) {
		t.Errorf("LeftmostPin = %v, want (3,2)", got)
	}
}

func TestWireValidate(t *testing.T) {
	g := geom.Grid{Channels: 10, Grids: 100}
	if err := (&Wire{ID: 1, Pins: []Pin{geom.Pt(0, 0)}}).Validate(g); err == nil {
		t.Errorf("single-pin wire must be invalid")
	}
	if err := (&Wire{ID: 1, Pins: []Pin{geom.Pt(0, 0), geom.Pt(100, 0)}}).Validate(g); err == nil {
		t.Errorf("off-grid pin must be invalid")
	}
	if err := (&Wire{ID: 1, Pins: []Pin{geom.Pt(0, 0), geom.Pt(99, 9)}}).Validate(g); err != nil {
		t.Errorf("valid wire rejected: %v", err)
	}
}

func TestCircuitValidateDuplicateIDs(t *testing.T) {
	c := &Circuit{
		Name: "t",
		Grid: geom.Grid{Channels: 4, Grids: 10},
		Wires: []Wire{
			{ID: 1, Pins: []Pin{geom.Pt(0, 0), geom.Pt(5, 0)}},
			{ID: 1, Pins: []Pin{geom.Pt(1, 1), geom.Pt(6, 1)}},
		},
	}
	if err := c.Validate(); err == nil {
		t.Errorf("duplicate wire IDs must be invalid")
	}
}

func TestComputeStats(t *testing.T) {
	c := &Circuit{
		Name: "t",
		Grid: geom.Grid{Channels: 4, Grids: 100},
		Wires: []Wire{
			{ID: 0, Pins: []Pin{geom.Pt(0, 0), geom.Pt(10, 0)}},
			{ID: 1, Pins: []Pin{geom.Pt(0, 1), geom.Pt(90, 1), geom.Pt(50, 2)}},
		},
	}
	s := ComputeStats(c)
	if s.Wires != 2 || s.Pins != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.MultiPin != 1 {
		t.Errorf("MultiPin = %d, want 1", s.MultiPin)
	}
	if s.LongWires != 1 { // wire 1 cost = 90+1 = 91 >= 60
		t.Errorf("LongWires = %d, want 1", s.LongWires)
	}
	if s.MaxCost != 131 {
		t.Errorf("MaxCost = %d, want 131", s.MaxCost)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Wires: 2, Pins: 5, MeanCost: 70.5, MaxCost: 131, MeanSpanX: 49.5, MeanSpanY: 1,
		LongWires: 1, MultiPin: 1}
	const want = "wires=2 pins=5 meanCost=70.5 maxCost=131 meanSpanX=49.5 meanSpanY=1.0 long=1 multiPin=1"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
