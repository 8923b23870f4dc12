// Package locusroute is the public programmatic entrypoint to the
// LocusRoute reproduction: one Backend interface over four ways of
// running the same routing workload — the sequential reference, the
// shared memory and message passing paradigms the paper compares
// (Martonosi & Gupta, ICPP 1989), each on the simulator the paper
// measured it with, and a partition-parallel router — so commands and
// the serving daemon construct backends through a single API
// instead of wiring each implementation by hand. Every backend is
// deterministic: the same request routes to the same answer.
//
// A Backend is built once with functional options and then routes any
// number of circuits:
//
//	be, err := locusroute.NewMessagePassing(
//		locusroute.WithProcs(16),
//		locusroute.WithStrategy(locusroute.SenderInitiated(2, 10)),
//	)
//	res, err := be.Route(ctx, locusroute.Request{Circuit: c})
//
// Every backend routes with the paper's router parameters
// (route.DefaultParams); WithIterations is the one of them an option
// sets.
//
// Backends are immutable after construction and safe for concurrent
// Route calls (each call builds its own run state), with one exception:
// WithTracer attaches a single event recorder, which confines the
// backend to one traced run at a time.
//
// Requests are validated, never clamped: a circuit wire with a pin
// outside the grid fails Route with an *OutsideGridError instead of
// being silently moved in bounds the way the synthetic generator does
// with its own draws.
//
// This package defines the surface and holds the implementation: the
// behavioural contract — validation, context handling at run
// boundaries, per-kind option rejection — lives here, and the serving
// layer (internal/locusd) imports it like any other caller.
package locusroute

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/mp"
	"locusroute/internal/sm"
	"locusroute/internal/trace"
)

// Kind identifies one of the four backend implementations.
type Kind string

const (
	// Sequential is the uniprocessor reference router.
	Sequential Kind = "sequential"
	// SMTraced is the Tango-style multiplexed shared memory router that
	// records every shared reference for the coherence simulator.
	SMTraced Kind = "sm-traced"
	// MPDES is the message passing router on the simulated mesh
	// (discrete-event simulation; reports simulated time and traffic).
	MPDES Kind = "mp-des"
	// Partitioned is the partition-parallel router: a recursive bisection
	// of the grid whose leaf regions route concurrently on one shared
	// cost array, with boundary-crossing wires reconciled serially at
	// each tree level. One partition is bit-identical to Sequential.
	Partitioned Kind = "partitioned"
)

// Kinds lists every backend kind in a stable order.
func Kinds() []Kind { return []Kind{Sequential, SMTraced, MPDES, Partitioned} }

// Circuit, Wire and Pin alias the repository's circuit model so callers
// of the public API can name them without reaching into internal
// packages.
type (
	Circuit = circuit.Circuit
	Wire    = circuit.Wire
	Pin     = geom.Point
	Grid    = geom.Grid
)

// Strategy aliases the message passing update schedule (see the paper's
// Figure 3 taxonomy).
type Strategy = mp.Strategy

// SenderInitiated returns the pure sender initiated schedule of the
// paper's Table 1; the standard schedule is SenderInitiated(2, 10).
func SenderInitiated(sendRmt, sendLoc int) Strategy { return mp.SenderInitiated(sendRmt, sendLoc) }

// ReceiverInitiated returns the pure receiver initiated schedule of
// Table 2, blocking or not (Section 5.1.3).
func ReceiverInitiated(reqLoc, reqRmt int, blocking bool) Strategy {
	return mp.ReceiverInitiated(reqLoc, reqRmt, blocking)
}

// BnrE generates the synthetic stand-in for the paper's bnrE benchmark
// (420 wires, 10 channels x 341 grids) from the given seed.
func BnrE(seed int64) (*Circuit, error) { return circuit.Generate(circuit.BnrELike(seed)) }

// ReadCircuit parses a circuit from the repository's text format and
// validates it.
func ReadCircuit(r io.Reader) (*Circuit, error) { return circuit.Read(r) }

// Request asks a backend to route one circuit.
type Request struct {
	// Circuit is the circuit to route (required). Every wire must lie
	// inside the circuit's grid; Route returns an *OutsideGridError
	// otherwise — requests are rejected, never clamped.
	Circuit *Circuit
}

// OutsideGridError reports a request wire whose pin lies outside the
// loaded circuit's grid.
type OutsideGridError struct {
	WireID   int
	Pin      Pin
	Channels int
	Grids    int
}

// Error implements error.
func (e *OutsideGridError) Error() string {
	return fmt.Sprintf("locusroute: wire %d pin %v outside the %d-channel x %d-grid circuit (requests are rejected, not clamped)",
		e.WireID, e.Pin, e.Channels, e.Grids)
}

// ErrNoCircuit is returned by Route when the request has no circuit.
var ErrNoCircuit = errors.New("locusroute: request has no circuit")

// ValidateRequest checks a request the way every backend's Route does:
// the circuit must be present, structurally valid, and every wire pin
// inside the grid. Exposed so admission layers can reject bad requests
// before spending a worker on them.
func ValidateRequest(req Request) error {
	if req.Circuit == nil {
		return ErrNoCircuit
	}
	if err := ValidateWires(req.Circuit.Grid, req.Circuit.Wires); err != nil {
		return err
	}
	if err := req.Circuit.Validate(); err != nil {
		return fmt.Errorf("locusroute: %w", err)
	}
	return nil
}

// ValidateWires checks that every wire has at least two pins and every
// pin lies inside grid g, returning an *OutsideGridError for the first
// escapee. This is the boundary where out-of-grid references become
// errors instead of the silent clamping internal layers would apply.
func ValidateWires(g geom.Grid, wires []Wire) error {
	bounds := g.Bounds()
	for i := range wires {
		w := &wires[i]
		if len(w.Pins) < 2 {
			return fmt.Errorf("locusroute: wire %d has %d pins, need at least 2", w.ID, len(w.Pins))
		}
		for _, p := range w.Pins {
			if !p.In(bounds) {
				return &OutsideGridError{WireID: w.ID, Pin: p, Channels: g.Channels, Grids: g.Grids}
			}
		}
	}
	return nil
}

// Result is the unified outcome of routing one circuit through any
// backend. The quality measures are always present; the configuration
// the backend resolved from its options (schedule, order, assignment
// locality) and paradigm-specific detail (MP/SM/RefTrace) ride in the
// fields of the producing backend.
type Result struct {
	// Backend is the implementation that produced the result.
	Backend Kind
	// Circuit is the routed circuit's name.
	Circuit string
	// Procs is the processor count the backend ran with.
	Procs int
	// CircuitHeight and Occupancy are the paper's quality measures
	// (Section 3); lower is better.
	CircuitHeight int64
	Occupancy     int64
	// WiresRouted counts wire routings performed (wires x iterations;
	// zero where the backend does not report it).
	WiresRouted int
	// CellsExamined is the total route-evaluation work.
	CellsExamined int64
	// SimTime is the virtual execution time of the MPDES and SMTraced
	// backends (zero for the others, which have no time model).
	SimTime time.Duration
	// Strategy is the update schedule an MPDES run simulated, exactly as
	// passed to the simulator: the configured or standard schedule with
	// WithBlocking applied, or the empty schedule under strict ownership
	// (which has no views to update). Zero for the other backends.
	Strategy Strategy
	// Order is the wire order an SMTraced run used: sm.Dynamic (the
	// distributed loop) or sm.Static (a precomputed assignment). Zero
	// (sm.Dynamic) for the other backends.
	Order sm.Order
	// Locality and Imbalance describe the static wire assignment the run
	// routed with (every MPDES run, and SMTraced runs with a static
	// order): the locality measure in mesh hops (Section 5.3.3) and the
	// busiest processor's wire count over the mean. Both are zero when
	// the run had no static assignment.
	Locality  float64
	Imbalance float64
	// Wall is the wall-clock duration of the Route call.
	Wall time.Duration
	// Final is the ground-truth cost array after the run — the routed
	// congestion state, used to seed serving arrays and render
	// heatmaps.
	Final *costarray.CostArray
	// MP carries the full message passing result (traffic breakdown,
	// busy-time split) when the backend is MPDES.
	MP *mp.Result
	// SM carries the full shared memory result when the backend is
	// SMTraced.
	SM *sm.Result
	// RefTrace is the shared-reference trace of an SMTraced run, ready
	// for the coherence simulator; nil for every other backend.
	RefTrace *trace.Trace
}

// Backend routes circuits through one of the paper's implementations.
type Backend interface {
	// Route routes the request's circuit and reports the unified result.
	// The context is honoured at run boundaries: a request that is
	// cancelled before or during the run returns ctx.Err(), though an
	// in-flight run finishes in the background (its result discarded) —
	// the simulators have no preemption points.
	Route(ctx context.Context, req Request) (Result, error)
	// Kind identifies the implementation.
	Kind() Kind
	// Procs reports the configured processor count.
	Procs() int
}

// New constructs the backend named by kind. It is the string-driven
// dispatch used by commands and the serving daemon; the per-kind
// constructors are the typed equivalents.
func New(kind Kind, opts ...Option) (Backend, error) {
	switch kind {
	case Sequential:
		return NewSequential(opts...)
	case SMTraced:
		return NewTracedSharedMemory(opts...)
	case MPDES:
		return NewMessagePassing(opts...)
	case Partitioned:
		return NewPartitioned(opts...)
	}
	return nil, fmt.Errorf("locusroute: unknown backend kind %q (want one of %v)", kind, Kinds())
}
