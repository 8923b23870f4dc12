// Command mproute runs the message passing LocusRoute on the simulated
// mesh with a configurable update strategy and reports quality, simulated
// execution time, and network traffic (total and per packet kind).
//
// Usage:
//
//	mproute [-bench bnrE|MDC] [-procs 16] [-iters N]
//	        [-sld N] [-srd N] [-rld N] [-rrd N] [-blocking]
//	        [-assign rr|threshold] [-threshold 1000] [-par N]
//	        [-trace out.json]
//
// -trace records an event-level timeline of the simulated run and writes
// it as a Chrome trace-event document (open it at ui.perfetto.dev: one
// track per node, flow arrows for packets). It also prints the run's
// critical path — the chain of dependent events that sets the simulated
// time — with a per-category breakdown of time on the path.
//
// -par is accepted for interface uniformity with cmd/paper and
// cmd/smtrace (scripted sweeps pass the same flags to all three); a
// single mproute invocation is one simulation, so there is nothing to
// fan out and the flag does not change the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"locusroute/internal/assign"
	"locusroute/internal/cli"
	"locusroute/internal/geom"
	"locusroute/internal/mp"
	"locusroute/internal/msg"
	"locusroute/internal/route"
	"locusroute/internal/tracev"
	"locusroute/pkg/locusroute"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mproute: ")
	common := cli.New("mproute")
	common.AddPar(flag.CommandLine, "a single mproute invocation is one simulation, so the flag does not change the run")
	common.AddObs(flag.CommandLine)
	common.AddBench(flag.CommandLine)
	var (
		procs     = flag.Int("procs", 16, "number of simulated processors")
		iters     = flag.Int("iters", route.DefaultParams().Iterations, "routing iterations")
		sld       = flag.Int("sld", 0, "wires between SendLocData broadcasts (0 = off)")
		srd       = flag.Int("srd", 0, "wires between SendRmtData pushes (0 = off)")
		rld       = flag.Int("rld", 0, "ReqRmtData packets before a ReqLocData pull (0 = off)")
		rrd       = flag.Int("rrd", 0, "region touches before a ReqRmtData request (0 = off)")
		blocking  = flag.Bool("blocking", false, "block for outstanding ReqRmtData responses")
		asnMethod = flag.String("assign", "threshold", "wire assignment: rr or threshold")
		threshold = flag.Int("threshold", 1000, "ThresholdCost for -assign threshold (-1 = infinity)")
		packets   = flag.String("packets", "bbox", "update packet structure: bbox, wire or region")
		dynamic   = flag.Bool("dynamic", false, "dynamic wire assignment over the network (ablation)")
		strict    = flag.Bool("strict", false, "strict region ownership, no replicated views (ablation)")
		traceOut  = flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this file")
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}

	stopProfile, err := common.StartProfile()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	c, err := common.LoadCircuit()
	if err != nil {
		log.Fatal(err)
	}
	col := common.Collector()

	opts := []locusroute.Option{
		locusroute.WithProcs(*procs),
		locusroute.WithIterations(*iters),
		locusroute.WithObserver(col),
	}

	st := mp.Strategy{
		SendLocData: *sld, SendRmtData: *srd,
		ReqLocData: *rld, ReqRmtData: *rrd, Blocking: *blocking,
	}
	if *sld == 0 && *srd == 0 && *rrd == 0 && !*strict {
		// Default to the paper's standard sender initiated schedule.
		st = mp.SenderInitiated(2, 10)
	}
	if !*strict {
		opts = append(opts, locusroute.WithStrategy(st))
	}

	switch *asnMethod {
	case "rr":
		opts = append(opts, locusroute.WithRoundRobin())
	case "threshold":
		opts = append(opts, locusroute.WithThreshold(*threshold))
	default:
		log.Fatalf("unknown assignment %q", *asnMethod)
	}
	switch *packets {
	case "bbox":
		opts = append(opts, locusroute.WithPackets(locusroute.PacketsBbox))
	case "wire":
		opts = append(opts, locusroute.WithPackets(locusroute.PacketsWireBased))
	case "region":
		opts = append(opts, locusroute.WithPackets(locusroute.PacketsWholeRegion))
	default:
		log.Fatalf("unknown packet structure %q", *packets)
	}
	if *dynamic {
		opts = append(opts, locusroute.WithDynamicWires())
	}
	if *strict {
		// Strict ownership forces the pure-locality assignment.
		opts = append(opts, locusroute.WithStrictOwnership())
	}

	var tracer *tracev.Tracer
	if *traceOut != "" {
		tracer = tracev.New(0)
		opts = append(opts, locusroute.WithTracer(tracer))
	}

	backend, err := locusroute.NewMessagePassing(opts...)
	if err != nil {
		log.Fatal(err)
	}

	var res locusroute.Result
	common.Pool().Run(func() {
		res, err = backend.Route(context.Background(), locusroute.Request{Circuit: c, Name: common.Bench})
	})
	if err != nil {
		log.Fatal(err)
	}
	mpRes := res.MP

	if err := common.WriteSnapshot(col); err != nil {
		log.Fatal(err)
	}

	px, py := geom.SquarestFactors(*procs)
	part, err := geom.NewPartition(c.Grid, px, py)
	if err != nil {
		log.Fatal(err)
	}
	asn := routingAssignment(c, part, *asnMethod, *threshold, *strict)
	fmt.Printf("circuit %s on %d processors (%dx%d mesh), strategy %v\n",
		c.Name, *procs, px, py, st)
	fmt.Printf("locality measure: %.2f hops, load imbalance %.2fx\n",
		assign.LocalityMeasure(c, part, asn), asn.Imbalance())
	fmt.Printf("circuit height:   %d\n", res.CircuitHeight)
	fmt.Printf("occupancy factor: %d\n", res.Occupancy)
	fmt.Printf("execution time:   %v\n", mpRes.Time)
	fmt.Printf("update traffic:   %.3f MBytes (%d packets, contention delay %v)\n",
		mpRes.MBytes(), mpRes.Net.Packets, mpRes.Net.ContentionDelay)
	fmt.Printf("busy time split:  %.0f%% routing, %.0f%% update machinery\n",
		(1-mpRes.MessageFraction())*100, mpRes.MessageFraction()*100)

	kinds := make([]msg.Kind, 0, len(mpRes.BytesByKind))
	for k := range mpRes.BytesByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Printf("  %-12s %8d bytes in %d packets\n",
			k, mpRes.BytesByKind[k], mpRes.PacketsByKind[k])
	}

	if *traceOut != "" {
		writeTrace(*traceOut, tracer, c.Name, *procs)
	}
}

// routingAssignment rebuilds the assignment the backend used, for the
// locality and imbalance report lines (the facade constructs its own
// copy internally from the same inputs).
func routingAssignment(c *locusroute.Circuit, part geom.Partition, method string, threshold int, strict bool) *assign.Assignment {
	if strict {
		return assign.AssignThreshold(c, part, assign.ThresholdInfinity)
	}
	if method == "rr" {
		return assign.AssignRoundRobin(c, part)
	}
	th := threshold
	if th < 0 {
		th = assign.ThresholdInfinity
	}
	return assign.AssignThreshold(c, part, th)
}

// writeTrace exports the run's event timeline as a Chrome trace-event
// document and prints its critical path: the chain of dependent events
// that sets the simulated time, with each wait resolved to the packet
// (and sender) that ended it.
func writeTrace(path string, tracer *tracev.Tracer, circuitName string, procs int) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	err = tracer.WriteChrome(f, mp.ChromeOptions(circuitName, procs))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	cp, err := tracev.Analyze(tracer.Events())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trace:            wrote %s (open at https://ui.perfetto.dev)\n", path)
	if dropped := tracer.Dropped(); dropped > 0 {
		fmt.Printf("trace:            ring overflowed, oldest %d events dropped (early time reads as untraced)\n", dropped)
	}
	fmt.Printf("critical path:    %.3fs ending on node %d, %d packet hops, %d steps\n",
		float64(cp.TotalNs)/1e9, cp.EndTrack, cp.Hops, len(cp.Steps))
	fmt.Printf("  on path:        compute %.3fs, packet %.3fs, blocked %.3fs, barrier %.3fs, network %.3fs, untraced %.3fs\n",
		cp.Seconds(tracev.CatCompute), cp.Seconds(tracev.CatPacket),
		cp.Seconds(tracev.CatBlocked), cp.Seconds(tracev.CatBarrier),
		cp.Seconds(tracev.CatNetwork), cp.Seconds(tracev.CatUntraced))

	steps := append([]tracev.Step(nil), cp.Steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].DurNs() > steps[j].DurNs() })
	if len(steps) > 8 {
		steps = steps[:8]
	}
	fmt.Println("  longest steps:")
	for _, st := range steps {
		detail := ""
		switch {
		case st.Flow != 0:
			detail = fmt.Sprintf("  ended by %d-byte packet from node %d", st.Bytes, st.FromTrack)
		case st.Wire >= 0:
			detail = fmt.Sprintf("  wire %d", st.Wire)
		}
		fmt.Printf("    node %-3d %-9s %9.6fs  [%.6fs, %.6fs]%s\n",
			st.Track, st.Cat, float64(st.DurNs())/1e9,
			float64(st.FromNs)/1e9, float64(st.ToNs)/1e9, detail)
	}
}
