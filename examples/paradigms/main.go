// Paradigms: the paper's two programming models side by side, each on
// the simulator the paper measured it with. The shared memory version
// interleaves 16 processes on one unlocked cost array in virtual time
// (Tango-style); the message passing version runs 16 nodes whose only
// interaction is marshalled packets over the simulated mesh. Quality,
// simulated time, and the message passing version's update bytes are
// compared against the sequential reference. All three implementations
// are constructed through the one public Backend interface in
// pkg/locusroute.
//
//	go run ./examples/paradigms
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/metrics"
	"locusroute/pkg/locusroute"
)

func main() {
	log.SetFlags(0)

	c, err := circuit.Generate(circuit.BnrELike(1))
	if err != nil {
		log.Fatal(err)
	}
	const procs = 16
	fmt.Printf("routing %s (%d wires) on %d simulated processors\n\n", c.Name, len(c.Wires), procs)

	table := metrics.NewTable("two paradigms, simulated",
		"Implementation", "Ckt Ht.", "Occup.", "Sim time", "Update bytes")

	// Three backends, one interface: the row label and update-byte
	// column are the only per-paradigm code left.
	backends := []struct {
		label string
		make  func() (locusroute.Backend, error)
	}{
		{"sequential reference", func() (locusroute.Backend, error) {
			return locusroute.NewSequential()
		}},
		{"shared memory (traced)", func() (locusroute.Backend, error) {
			return locusroute.NewTracedSharedMemory(locusroute.WithProcs(procs))
		}},
		{"message passing (mesh DES)", func() (locusroute.Backend, error) {
			return locusroute.NewMessagePassing(locusroute.WithProcs(procs))
		}},
	}
	for _, b := range backends {
		backend, err := b.make()
		if err != nil {
			log.Fatal(err)
		}
		res, err := backend.Route(context.Background(), locusroute.Request{Circuit: c})
		if err != nil {
			log.Fatal(err)
		}
		simTime, bytes := "-", "-"
		if res.SimTime > 0 {
			simTime = res.SimTime.Round(time.Millisecond).String()
		}
		if res.MP != nil {
			bytes = fmt.Sprintf("%d", res.MP.UpdateBytes)
		}
		table.Add(b.label,
			fmt.Sprintf("%d", res.CircuitHeight), fmt.Sprintf("%d", res.Occupancy),
			simTime, bytes)
	}

	fmt.Println(table)
	fmt.Println("the shared memory program relies on the hardware for consistency")
	fmt.Println("(its bus traffic is what locusroute -backend sm-traced measures); the")
	fmt.Println("message passing program buys whatever consistency its update schedule")
	fmt.Println("pays for, in marshalled bytes.")
}
