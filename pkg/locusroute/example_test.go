package locusroute_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"locusroute/internal/circuit"
	"locusroute/pkg/locusroute"
)

// Route a small synthetic circuit on one processor, then again with
// four simulated processes sharing one unlocked cost array (the paper's
// shared memory style: a distributed loop and a barrier between
// rip-up-and-reroute iterations), and compare the quality measures.
func ExampleNewSequential() {
	c, err := circuit.Generate(circuit.GenParams{
		Name: "quickstart", Channels: 8, Grids: 120, Wires: 150,
		MeanSpan: 12, LongFrac: 0.1, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s\n", c.Name, circuit.ComputeStats(c))

	seq, err := locusroute.NewSequential()
	if err != nil {
		log.Fatal(err)
	}
	sm, err := locusroute.NewTracedSharedMemory(locusroute.WithProcs(4))
	if err != nil {
		log.Fatal(err)
	}
	for _, be := range []locusroute.Backend{seq, sm} {
		res, err := be.Route(context.Background(), locusroute.Request{Circuit: c})
		if err != nil {
			log.Fatal(err)
		}
		// Circuit height is the total routing tracks and occupancy the
		// sum of path costs at routing time; lower is better for both.
		fmt.Printf("%-11s procs %d: circuit height %d, occupancy %d\n",
			be.Kind(), be.Procs(), res.CircuitHeight, res.Occupancy)
	}
	// Output:
	// quickstart: wires=150 pins=460 meanCost=28.2 maxCost=485 meanSpanX=13.8 meanSpanY=1.3 long=11 multiPin=65
	// sequential  procs 1: circuit height 42, occupancy 4827
	// sm-traced   procs 4: circuit height 40, occupancy 4488
}

// The paper's two programming models side by side, each on the
// simulator the paper measured it with, against the sequential
// reference: the shared memory version interleaves 16 processes on one
// unlocked cost array in virtual time (Tango-style); the message
// passing version runs 16 nodes whose only interaction is marshalled
// packets over the simulated mesh, and reports the update bytes its
// consistency cost.
func Example_paradigms() {
	c, err := circuit.Generate(circuit.BnrELike(1))
	if err != nil {
		log.Fatal(err)
	}
	const procs = 16
	sm, err := locusroute.NewTracedSharedMemory(locusroute.WithProcs(procs))
	if err != nil {
		log.Fatal(err)
	}
	mp, err := locusroute.NewMessagePassing(locusroute.WithProcs(procs))
	if err != nil {
		log.Fatal(err)
	}
	seq, err := locusroute.NewSequential()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, %d wires\n", c.Name, len(c.Wires))
	for _, be := range []locusroute.Backend{seq, sm, mp} {
		res, err := be.Route(context.Background(), locusroute.Request{Circuit: c})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s circuit height %d, occupancy %d", be.Kind(), res.CircuitHeight, res.Occupancy)
		if res.SimTime > 0 {
			fmt.Printf(", simulated %v", res.SimTime.Round(time.Millisecond))
		}
		if res.MP != nil {
			fmt.Printf(", %d update bytes", res.MP.UpdateBytes)
		}
		fmt.Println()
	}
	// Output:
	// bnrE-like, 420 wires
	// sequential  circuit height 110, occupancy 86725
	// sm-traced   circuit height 117, occupancy 68807, simulated 103ms
	// mp-des      circuit height 119, occupancy 93555, simulated 282ms, 232111 update bytes
}
