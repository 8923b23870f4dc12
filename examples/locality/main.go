// Locality: sweep the ThresholdCost wire assignment knob (Section 4.2 of
// the paper) and show its three-way tension — locality vs load balance vs
// traffic — in both paradigms (the shape of the paper's Tables 4 and 5).
// Each assignment is one option on the two pkg/locusroute backends; the
// same option drives the message passing mesh and the traced shared
// memory run whose reference trace feeds the coherence simulator, and
// the locality and imbalance columns are the ones the message passing
// backend reports for the assignment it routed with.
//
//	go run ./examples/locality
package main

import (
	"context"
	"fmt"
	"log"

	"locusroute/internal/cache"
	"locusroute/internal/experiments"
	"locusroute/internal/metrics"
	"locusroute/pkg/locusroute"
)

func main() {
	log.SetFlags(0)

	c := experiments.MDC()
	const procs = 16

	table := metrics.NewTable(
		fmt.Sprintf("wire assignment locality on %s, %d processors", c.Name, procs),
		"Assignment", "Locality", "Imbalance",
		"MP Ckt Ht", "MP MBytes", "MP Time (s)",
		"SM Ckt Ht", "SM MBytes")
	// The rows of the paper's Tables 4 and 5; a negative threshold there
	// marks round robin.
	for _, m := range experiments.LocalityMethods() {
		option := locusroute.WithRoundRobin()
		if m.Threshold >= 0 {
			option = locusroute.WithThreshold(m.Threshold)
		}

		mpBackend, err := locusroute.NewMessagePassing(locusroute.WithProcs(procs), option)
		if err != nil {
			log.Fatal(err)
		}
		mpRes, err := mpBackend.Route(context.Background(), locusroute.Request{Circuit: c})
		if err != nil {
			log.Fatal(err)
		}

		smBackend, err := locusroute.NewTracedSharedMemory(locusroute.WithProcs(procs), option)
		if err != nil {
			log.Fatal(err)
		}
		smRes, err := smBackend.Route(context.Background(), locusroute.Request{Circuit: c})
		if err != nil {
			log.Fatal(err)
		}
		traffic, err := cache.Replay(smRes.RefTrace, procs, 8)
		if err != nil {
			log.Fatal(err)
		}

		table.Add(m.Label,
			fmt.Sprintf("%.2f", mpRes.Locality),
			metrics.Ratio(mpRes.Imbalance),
			fmt.Sprintf("%d", mpRes.CircuitHeight),
			fmt.Sprintf("%.3f", mpRes.MP.MBytes()),
			metrics.Seconds(mpRes.MP.Time.Seconds()),
			fmt.Sprintf("%d", smRes.CircuitHeight),
			fmt.Sprintf("%.3f", traffic.MBytes()))
	}
	fmt.Println(table)
	fmt.Println("locality 0 would mean every wire is routed by the owner of its region;")
	fmt.Println("pure locality (inf) minimises hops but its load imbalance costs time —")
	fmt.Println("the best execution time sits between the extremes, as the paper found.")
}
