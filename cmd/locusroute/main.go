// Command locusroute routes a standard cell circuit with the sequential
// reference router or the partition-parallel router, and reports the
// quality measures.
//
// Usage:
//
//	locusroute [-circuit file | -bench bnrE|MDC] [-procs N] [-iters N] [-mode seq|part]
//	locusroute -mode part -partitions 4          # partition-parallel
//	locusroute -mode seq -negotiate              # negotiated congestion
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"locusroute/internal/cli"
	"locusroute/internal/report"
	"locusroute/internal/route"
	"locusroute/pkg/locusroute"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("locusroute: ")
	common := cli.New("locusroute")
	common.AddObs(flag.CommandLine)
	common.AddBench(flag.CommandLine)
	common.AddCircuitFile(flag.CommandLine)
	var (
		procs      = flag.Int("procs", 1, "worker bound for -mode part")
		iters      = flag.Int("iters", route.DefaultParams().Iterations, "routing iterations")
		mode       = flag.String("mode", "seq", "seq (sequential reference) or part (partition-parallel)")
		partitions = flag.Int("partitions", 0, "leaf regions for -mode part (0 = default 4; 1 is bit-identical to seq)")
		negotiate  = flag.Bool("negotiate", false, "use the negotiated-congestion schedule (modes seq and part)")
		heatmap    = flag.Bool("heatmap", false, "render the final cost array as ASCII art")
		showReport = flag.Bool("report", false, "print the per-channel congestion analysis")
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

	var backend locusroute.Backend
	switch *mode {
	case "seq":
		opts := []locusroute.Option{
			locusroute.WithIterations(*iters),
			locusroute.WithObserver(col),
		}
		if *negotiate {
			opts = append(opts, locusroute.WithNegotiatedCongestion(locusroute.Negotiated{}))
		}
		backend, err = locusroute.NewSequential(opts...)
	case "part":
		opts := []locusroute.Option{
			locusroute.WithProcs(*procs),
			locusroute.WithIterations(*iters),
			locusroute.WithObserver(col),
		}
		if *partitions > 0 {
			opts = append(opts, locusroute.WithPartitions(*partitions))
		}
		if *negotiate {
			opts = append(opts, locusroute.WithNegotiatedCongestion(locusroute.Negotiated{}))
		}
		backend, err = locusroute.NewPartitioned(opts...)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("circuit %s: %d wires, %d channels x %d grids\n",
		c.Name, len(c.Wires), c.Grid.Channels, c.Grid.Grids)

	res, err := backend.Route(context.Background(), locusroute.Request{Circuit: c})
	if err != nil {
		log.Fatal(err)
	}
	switch *mode {
	case "seq":
		fmt.Printf("sequential: circuit height %d, occupancy %d (%d wire routings, %d cells examined)\n",
			res.CircuitHeight, res.Occupancy, res.WiresRouted, res.CellsExamined)
	case "part":
		fmt.Printf("partitioned: circuit height %d, occupancy %d (%d wire routings, %d cells examined)\n",
			res.CircuitHeight, res.Occupancy, res.WiresRouted, res.CellsExamined)
	}
	if *heatmap {
		fmt.Printf("\ncost array congestion (rows = channels):\n%s", res.Final.Heatmap(100))
	}
	if *showReport {
		fmt.Printf("\n%s", report.Analyze(res.Final, 10))
	}

	if err := common.WriteSnapshot(col); err != nil {
		log.Fatal(err)
	}
}
