// Updates: explore the message passing update strategy space of the paper
// (Section 4.3) on one circuit — pure sender initiated, pure receiver
// initiated (blocking and non-blocking), and the mixed schedule — and
// print a quality / traffic / time comparison, i.e. the shape of the
// paper's Tables 1 and 2. Each schedule is a WithStrategy option on the
// pkg/locusroute message passing backend.
//
//	go run ./examples/updates
package main

import (
	"context"
	"fmt"
	"log"

	"locusroute/internal/circuit"
	"locusroute/internal/metrics"
	"locusroute/internal/mp"
	"locusroute/pkg/locusroute"
)

func main() {
	log.SetFlags(0)

	c, err := circuit.Generate(circuit.BnrELike(1))
	if err != nil {
		log.Fatal(err)
	}
	const procs = 16

	strategies := []struct {
		label string
		st    mp.Strategy
	}{
		{"sender, frequent (SRD=2 SLD=1)", mp.SenderInitiated(2, 1)},
		{"sender, standard (SRD=2 SLD=10)", mp.StandardStrategy()},
		{"sender, rare (SRD=10 SLD=20)", mp.SenderInitiated(10, 20)},
		{"receiver, eager (RLD=1 RRD=5)", mp.ReceiverInitiated(1, 5, false)},
		{"receiver, lazy (RLD=1 RRD=30)", mp.ReceiverInitiated(1, 30, false)},
		{"receiver, blocking (RLD=1 RRD=5)", mp.ReceiverInitiated(1, 5, true)},
		{"mixed (SLD=5 SRD=2 RLD=1 RRD=5)", mp.Strategy{SendLocData: 5, SendRmtData: 2, ReqLocData: 1, ReqRmtData: 5}},
		{"no updates at all", mp.Strategy{}},
	}

	table := metrics.NewTable(
		fmt.Sprintf("update strategies on %s, %d processors", c.Name, procs),
		"Strategy", "Ckt Ht.", "Occup.", "MBytes", "Time (s)")
	for _, entry := range strategies {
		backend, err := locusroute.NewMessagePassing(
			locusroute.WithProcs(procs),
			locusroute.WithStrategy(entry.st))
		if err != nil {
			log.Fatal(err)
		}
		res, err := backend.Route(context.Background(), locusroute.Request{Circuit: c})
		if err != nil {
			log.Fatal(err)
		}
		table.Add(entry.label,
			fmt.Sprintf("%d", res.CircuitHeight),
			fmt.Sprintf("%d", res.Occupancy),
			fmt.Sprintf("%.3f", res.MP.MBytes()),
			metrics.Seconds(res.MP.Time.Seconds()))
	}
	fmt.Println(table)
	fmt.Println("things to notice (the paper's observations):")
	fmt.Println(" - sender initiated traffic is several times receiver initiated traffic")
	fmt.Println(" - rarer updates trade traffic and time against occupancy quality")
	fmt.Println(" - blocking costs time without buying quality")
	fmt.Println(" - with no updates at all, views never synchronise and quality suffers")
}
