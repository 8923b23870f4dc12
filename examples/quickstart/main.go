// Quickstart: generate a small standard cell circuit, route it
// sequentially, and route it again with the simulated shared memory
// router, comparing the quality measures. Both routers are constructed
// through the public pkg/locusroute backend API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"locusroute/internal/circuit"
	"locusroute/pkg/locusroute"
)

func main() {
	log.SetFlags(0)

	// A small synthetic circuit: 8 channels, 120 grid columns, 150 wires.
	c, err := circuit.Generate(circuit.GenParams{
		Name:     "quickstart",
		Channels: 8,
		Grids:    120,
		Wires:    150,
		MeanSpan: 12,
		LongFrac: 0.1,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %s: %s\n\n", c.Name, circuit.ComputeStats(c))

	// Route on one processor: the reference result.
	seqBackend, err := locusroute.NewSequential()
	if err != nil {
		log.Fatal(err)
	}
	seq, err := seqBackend.Route(context.Background(), locusroute.Request{Circuit: c})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential router:\n")
	fmt.Printf("  circuit height   %d (total routing tracks; lower is better)\n", seq.CircuitHeight)
	fmt.Printf("  occupancy factor %d (sum of path costs at routing time)\n", seq.Occupancy)
	fmt.Printf("  congested cells  %d of %d\n\n", seq.Final.NonZeroCells(), c.Grid.Cells())

	// Route with 4 simulated processes sharing one cost array (the
	// paper's shared memory style: no locks, a distributed loop, a
	// barrier between rip-up-and-reroute iterations).
	smBackend, err := locusroute.NewTracedSharedMemory(locusroute.WithProcs(4))
	if err != nil {
		log.Fatal(err)
	}
	par, err := smBackend.Route(context.Background(), locusroute.Request{Circuit: c})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared memory router (4 processes):\n")
	fmt.Printf("  circuit height   %d\n", par.CircuitHeight)
	fmt.Printf("  occupancy factor %d\n", par.Occupancy)
	fmt.Printf("\nparallel quality is close to sequential but not identical:\n")
	fmt.Printf("processors route simultaneously without seeing each other's\n")
	fmt.Printf("in-flight wires — the central tradeoff the paper studies.\n")
}
