// Package sm implements the shared memory version of LocusRoute
// (Section 3 of the paper) as a deterministic, Tango-style multiplexed
// execution on one OS thread (RunTraced). P logical processes route
// wires against one shared, unlocked cost array with per-process virtual
// clocks; the scheduler always advances the process with the smallest
// clock, and every shared reference (time, address, processor,
// read/write) goes onto that process's stream. The streams are merged
// into one interleaved trace as the run proceeds and piped into the
// caller's consumer — the Write-Back-with-Invalidate coherence simulator
// (internal/cache) to obtain bus traffic, exactly the paper's
// methodology. Commits become visible to other processes when the
// routing of the wire completes in virtual time, so processes routing
// simultaneously do not see each other's in-flight work — the
// interference that degrades quality as the processor count grows.
package sm

import (
	"fmt"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/perf"
	"locusroute/internal/route"
	"locusroute/internal/sim"
)

// Order selects how wires are handed to processes.
type Order int

const (
	// Dynamic is the paper's distributed loop: processes repeatedly take
	// the next wire from a shared counter.
	Dynamic Order = iota
	// Static uses a precomputed assignment (for the locality experiments
	// of Table 5).
	Static
)

// String names the order.
func (o Order) String() string {
	if o == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Config configures a shared memory run.
type Config struct {
	// Procs is the number of logical processes.
	Procs int
	// Router carries iterations and candidate bounds.
	Router route.Params
	// Order selects dynamic (distributed loop) or static assignment.
	Order Order
	// Assignment is required when Order is Static and must cover the
	// circuit with exactly Procs processors.
	Assignment *assign.Assignment
	// Perf is the virtual-time cost model.
	Perf perf.Model
}

// DefaultConfig is the 16-process dynamic configuration of the paper's
// shared memory baseline.
func DefaultConfig() Config {
	return Config{
		Procs:  16,
		Router: route.DefaultParams(),
		Order:  Dynamic,
		Perf:   perf.Default(),
	}
}

func (c Config) withDefaults() Config {
	if c.Perf == (perf.Model{}) {
		c.Perf = perf.Default()
	}
	return c
}

func (c Config) validate(circ *circuit.Circuit) error {
	if c.Procs <= 0 {
		return fmt.Errorf("sm: process count %d must be positive", c.Procs)
	}
	if c.Order == Static {
		if c.Assignment == nil {
			return fmt.Errorf("sm: static order requires an assignment")
		}
		if c.Assignment.NumProcs != c.Procs {
			return fmt.Errorf("sm: assignment built for %d processes, config has %d",
				c.Assignment.NumProcs, c.Procs)
		}
		if err := c.Assignment.Validate(circ); err != nil {
			return err
		}
	}
	return nil
}

// Result reports a shared memory run.
type Result struct {
	// CircuitHeight and Occupancy are the quality measures (Section 3).
	CircuitHeight int64
	Occupancy     int64
	// Span is the virtual makespan of the execution.
	Span sim.Time
	// Reads and Writes count the shared references of the execution.
	Reads, Writes int
	// PeakBuffered is the most references the execution held at
	// once while they waited to be merged into the trace; the rest had
	// already been handed to the consumer.
	PeakBuffered int
	// WiresRouted counts routings performed (wires x iterations).
	WiresRouted int
	// CellsExamined is the total route-evaluation work.
	CellsExamined int64
	// Final is the shared cost array after the last barrier — the routed
	// congestion state service layers seed serving arrays from.
	Final *costarray.CostArray
}
