package locusroute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/mp"
	"locusroute/internal/obs"
	"locusroute/internal/route"
	"locusroute/internal/sm"
	"locusroute/internal/trace"
	"locusroute/internal/tracev"
)

// testCircuit generates a small circuit shared by the facade tests.
func testCircuit(t *testing.T) *Circuit {
	t.Helper()
	c, err := circuit.Generate(circuit.GenParams{
		Name: "facade", Channels: 6, Grids: 80, Wires: 60, MeanSpan: 10, LongFrac: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReadCircuitRoundTrip reads back what circuit.Write wrote.
func TestReadCircuitRoundTrip(t *testing.T) {
	c := testCircuit(t)
	var buf bytes.Buffer
	if err := circuit.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCircuit(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name || got.Grid != c.Grid || !reflect.DeepEqual(got.Wires, c.Wires) {
		t.Errorf("round trip changed the circuit: %s %v, %d wires; want %s %v, %d wires",
			got.Name, got.Grid, len(got.Wires), c.Name, c.Grid, len(c.Wires))
	}
	if _, err := ReadCircuit(strings.NewReader("wire 0 1 1 2 2\n")); err == nil {
		t.Error("a wire before the circuit header must fail")
	}
}

// TestSequentialMatchesDirectCall pins the facade to the internal
// entrypoint it wraps: identical quality measures and final array.
func TestSequentialMatchesDirectCall(t *testing.T) {
	c := testCircuit(t)
	be, err := NewSequential()
	if err != nil {
		t.Fatal(err)
	}
	got, err := be.Route(context.Background(), Request{Circuit: c})
	if err != nil {
		t.Fatal(err)
	}
	want, arr := route.Sequential(c, route.DefaultParams())
	if got.CircuitHeight != want.CircuitHeight || got.Occupancy != want.Occupancy {
		t.Errorf("facade quality (%d, %d) != direct (%d, %d)",
			got.CircuitHeight, got.Occupancy, want.CircuitHeight, want.Occupancy)
	}
	if got.Final == nil || got.Final.CircuitHeight() != arr.CircuitHeight() {
		t.Errorf("facade final array missing or diverged")
	}
	if got.Backend != Sequential || got.Procs != 1 {
		t.Errorf("result metadata = (%s, %d), want (sequential, 1)", got.Backend, got.Procs)
	}
}

// TestReportedConfigurationRan checks that the schedule, order and
// assignment locality a backend reports are the ones it ran: each case
// routes through the facade, then calls mp.Run or sm.RunTraced directly
// with the expected configuration and assignment, and the two runs must
// agree. The circuit is bnrE, whose long wires tell ThresholdCost 1000
// from infinity; one iteration keeps the runs short. The facade routes
// under a cancellable context, so on its own goroutine, the way a -race
// run should see it.
func TestReportedConfigurationRan(t *testing.T) {
	c, err := BnrE(1)
	if err != nil {
		t.Fatal(err)
	}
	const procs, iters = 4, 1
	px, py := geom.SquarestFactors(procs)
	part, err := geom.NewPartition(c.Grid, px, py)
	if err != nil {
		t.Fatal(err)
	}
	threshold := func(th int) *assign.Assignment { return assign.AssignThreshold(c, part, th) }
	standard, locality := threshold(assign.ThresholdStandard), threshold(assign.ThresholdInfinity)
	blocking := mp.StandardStrategy()
	blocking.Blocking = true
	for _, tc := range []struct {
		name   string
		kind   Kind
		opts   []Option
		st     Strategy           // the schedule mp.Run gets
		strict bool               // mp.Config.StrictOwnership
		asn    *assign.Assignment // nil: no static assignment
	}{
		{"mp-des defaults", MPDES, nil, mp.StandardStrategy(), false, standard},
		{"mp-des receiver initiated", MPDES, []Option{WithStrategy(ReceiverInitiated(1, 5, false))},
			mp.ReceiverInitiated(1, 5, false), false, standard},
		{"mp-des blocking", MPDES, []Option{WithBlocking()}, blocking, false, standard},
		{"mp-des round robin then strict", MPDES, []Option{WithRoundRobin(), WithStrictOwnership()},
			Strategy{}, true, locality},
		{"mp-des threshold -1", MPDES, []Option{WithThreshold(-1)}, mp.StandardStrategy(), false, locality},
		{"mp-des threshold 30", MPDES, []Option{WithThreshold(30)}, mp.StandardStrategy(), false, threshold(30)},
		{"sm-traced defaults", SMTraced, nil, Strategy{}, false, nil},
		{"sm-traced round robin", SMTraced, []Option{WithRoundRobin()}, Strategy{}, false, assign.AssignRoundRobin(c, part)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be, err := New(tc.kind, append([]Option{WithProcs(procs), WithIterations(iters)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if be.Kind() != tc.kind || be.Procs() != procs {
				t.Errorf("backend (%s, %d), want (%s, %d)", be.Kind(), be.Procs(), tc.kind, procs)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got, err := be.Route(ctx, Request{Circuit: c})
			if err != nil {
				t.Fatal(err)
			}

			want := Result{Backend: tc.kind, Procs: procs, Strategy: tc.st}
			if tc.asn != nil {
				want.Locality = assign.LocalityMeasure(c, part, tc.asn)
				want.Imbalance = tc.asn.Imbalance()
			}
			switch tc.kind {
			case MPDES:
				cfg := mp.DefaultConfig(tc.st)
				cfg.Procs = procs
				cfg.Router.Iterations = iters
				cfg.StrictOwnership = tc.strict
				res, err := mp.Run(c, tc.asn, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want.CircuitHeight, want.Occupancy, want.SimTime = res.CircuitHeight, res.Occupancy, time.Duration(res.Time)
				if got.MP == nil || got.MP.UpdateBytes != res.UpdateBytes {
					t.Errorf("MP detail missing or diverged")
				}
			case SMTraced:
				cfg := sm.DefaultConfig()
				cfg.Procs = procs
				cfg.Router.Iterations = iters
				if tc.asn != nil {
					cfg.Order, cfg.Assignment = sm.Static, tc.asn
				}
				tr := &trace.Trace{}
				res, err := sm.RunTraced(c, cfg, tr.AppendBatch)
				if err != nil {
					t.Fatal(err)
				}
				want.CircuitHeight, want.Occupancy, want.SimTime = res.CircuitHeight, res.Occupancy, time.Duration(res.Span)
				want.Order = cfg.Order
				if got.RefTrace == nil || got.RefTrace.Len() != tr.Len() {
					t.Errorf("reference trace missing or diverged")
				}
			}
			reported := func(r Result) string {
				return fmt.Sprintf("%s procs %d, schedule %v, order %v, locality %.4f, imbalance %.4f; height %d, occupancy %d, time %v",
					r.Backend, r.Procs, r.Strategy, r.Order, r.Locality, r.Imbalance, r.CircuitHeight, r.Occupancy, r.SimTime)
			}
			if g, w := reported(got), reported(want); g != w {
				t.Errorf("facade reported\n  %s\nthe direct run is\n  %s", g, w)
			}
		})
	}
}

// TestUnassignedRunsReportNoConfiguration checks Kind and Procs on the
// two backends without a simulator, and that a run without a schedule
// or a static assignment reports none.
func TestUnassignedRunsReportNoConfiguration(t *testing.T) {
	c := testCircuit(t)
	for _, kind := range []Kind{Sequential, Partitioned} {
		be, err := New(kind, WithProcs(procsFor(kind)))
		if err != nil {
			t.Fatal(err)
		}
		if be.Kind() != kind || be.Procs() != procsFor(kind) {
			t.Errorf("backend (%s, %d), want (%s, %d)", be.Kind(), be.Procs(), kind, procsFor(kind))
		}
		got, err := be.Route(context.Background(), Request{Circuit: c})
		if err != nil {
			t.Fatal(err)
		}
		if got.Strategy != (Strategy{}) || got.Order != sm.Dynamic || got.Locality != 0 || got.Imbalance != 0 {
			t.Errorf("%s reported schedule %v, order %v, locality %v, imbalance %v; want none",
				kind, got.Strategy, got.Order, got.Locality, got.Imbalance)
		}
	}
}

// TestOutsideGridRejected is the no-silent-clamping contract: a request
// wire with a pin outside the circuit grid fails with a typed error
// naming the wire and pin, on every backend.
func TestOutsideGridRejected(t *testing.T) {
	c := testCircuit(t)
	bad := *c
	bad.Wires = append(append([]Wire(nil), c.Wires...), Wire{
		ID:   9999,
		Pins: []Pin{geom.Pt(2, 2), geom.Pt(c.Grid.Grids+5, c.Grid.Channels+3)},
	})
	for _, kind := range Kinds() {
		be, err := New(kind, WithProcs(procsFor(kind)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = be.Route(context.Background(), Request{Circuit: &bad})
		var oge *OutsideGridError
		if !errors.As(err, &oge) {
			t.Fatalf("%s: error %v, want *OutsideGridError", kind, err)
		}
		if oge.WireID != 9999 {
			t.Errorf("%s: error names wire %d, want 9999", kind, oge.WireID)
		}
	}
}

// procsFor returns a legal processor count per backend kind.
func procsFor(kind Kind) int {
	if kind == Sequential {
		return 1
	}
	return 4
}

// TestValidateWires covers the boundary validation directly.
func TestValidateWires(t *testing.T) {
	g := geom.Grid{Channels: 4, Grids: 10}
	ok := []Wire{{ID: 1, Pins: []Pin{geom.Pt(0, 0), geom.Pt(9, 3)}}}
	if err := ValidateWires(g, ok); err != nil {
		t.Errorf("in-grid wire rejected: %v", err)
	}
	if err := ValidateWires(g, []Wire{{ID: 2, Pins: []Pin{geom.Pt(0, 0)}}}); err == nil {
		t.Error("single-pin wire accepted")
	}
	err := ValidateWires(g, []Wire{{ID: 3, Pins: []Pin{geom.Pt(0, 0), geom.Pt(10, 0)}}})
	var oge *OutsideGridError
	if !errors.As(err, &oge) || oge.Pin != geom.Pt(10, 0) {
		t.Errorf("out-of-grid pin error = %v, want *OutsideGridError at (10,0)", err)
	}
}

// TestOptionRejection checks that inapplicable options fail at
// construction, not at Route time.
func TestOptionRejection(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"strategy on sequential", func() error {
			_, err := NewSequential(WithStrategy(SenderInitiated(2, 10)))
			return err
		}},
		{"procs on sequential", func() error {
			_, err := NewSequential(WithProcs(4))
			return err
		}},
		{"tracer on SM", func() error {
			_, err := NewTracedSharedMemory(WithTracer(tracev.New(0)))
			return err
		}},
		{"dynamic order on MP", func() error {
			_, err := NewMessagePassing(WithDynamicOrder())
			return err
		}},
		{"zero procs", func() error {
			_, err := NewTracedSharedMemory(WithProcs(0))
			return err
		}},
		{"unknown kind", func() error {
			_, err := New(Kind("quantum"))
			return err
		}},
	}
	for _, cse := range cases {
		if cse.err() == nil {
			t.Errorf("%s: constructor accepted an inapplicable configuration", cse.name)
		}
	}
	// sm-live and mp-live name no backend.
	for _, kind := range []Kind{"sm-live", "mp-live"} {
		if _, err := New(kind); err == nil || !strings.Contains(err.Error(), "unknown backend kind") {
			t.Errorf("New(%q) = %v, want the unknown-kind error", kind, err)
		}
	}
}

// TestObserverCollectsRuns checks WithObserver appends one document per
// Route call, named by its circuit, with the backend, quality and node
// breakdown filled in.
func TestObserverCollectsRuns(t *testing.T) {
	c := testCircuit(t)
	col := obs.NewCollector()
	be, err := NewMessagePassing(WithProcs(4), WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Route(context.Background(), Request{Circuit: c}); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot("test")
	if len(snap.Runs) != 1 {
		t.Fatalf("collector has %d runs, want 1", len(snap.Runs))
	}
	r := snap.Runs[0]
	if r.Name != c.Name || r.Backend != string(MPDES) || r.Quality == nil {
		t.Errorf("run document = %+v, want name %s, backend mp-des, quality set", r, c.Name)
	}
	if len(r.Nodes) != 4 {
		t.Errorf("run document has %d node breakdowns, want 4", len(r.Nodes))
	}
}

// TestCancelledContext checks both pre-run and mid-run cancellation
// surfaces ctx.Err().
func TestCancelledContext(t *testing.T) {
	c := testCircuit(t)
	be, err := NewSequential()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := be.Route(ctx, Request{Circuit: c}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestIterationOverride checks WithIterations replaces the default
// iteration count.
func TestIterationOverride(t *testing.T) {
	c := testCircuit(t)
	be, err := NewSequential(WithIterations(1))
	if err != nil {
		t.Fatal(err)
	}
	one, err := be.Route(context.Background(), Request{Circuit: c})
	if err != nil {
		t.Fatal(err)
	}
	if one.WiresRouted != len(c.Wires) {
		t.Errorf("wires routed = %d, want %d", one.WiresRouted, len(c.Wires))
	}
}
