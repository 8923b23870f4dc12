// Command paper regenerates the tables of the paper's evaluation section
// (Martonosi & Gupta, ICPP 1989) on the synthetic benchmark circuits.
//
// Usage:
//
//	paper -all                 # every table (~1 s serial, ~0.6 s on two cores)
//	paper -all -par 4          # same tables, four simulations at a time
//	paper -table 1             # one table: 1, 2, 3, 4, 5, 6
//	paper -table blocking      # Section 5.1.3 blocking comparison
//	paper -table mixed         # Section 5.1.3 mixed schedules
//	paper -table locality      # Section 5.3.3 locality measure
//	paper -table comparison    # Section 5.2 SM vs MP
//	paper -table critpath      # critical-path attribution (traced runs)
//	paper -table partition     # partition-parallel speedup sweep
//	paper -trace out.json      # Perfetto trace of the standard schedule
//
// Every independent simulation fans out across -par workers; results are
// merged in submission order, so the output bytes are identical at every
// -par value. -trace requires -par 1: the trace file captures one run's
// event timeline, and refusing the combination is how the tool
// guarantees it never writes an interleaved document.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"locusroute/internal/cli"
	"locusroute/internal/experiments"
	"locusroute/internal/tracev"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	common := cli.New("paper")
	common.AddPar(flag.CommandLine, "output is identical at every value")
	common.AddObs(flag.CommandLine)
	var (
		table      = flag.String("table", "", "table to regenerate: 1-6, blocking, mixed, locality, comparison, packets, distribution, ownership, network, ordering, topology, robustness, critpath, partition")
		all        = flag.Bool("all", false, "regenerate every table")
		procs      = flag.Int("procs", 16, "processor count for tables that do not sweep it")
		iters      = flag.Int("iters", experiments.DefaultSetup().Iterations, "routing iterations")
		partitions = flag.Int("partitions", 0, "restrict the partition table's sweep to one leaf count (0 sweeps 1, 2, 4, 8)")
		traceOut   = flag.String("trace", "", "write a Chrome/Perfetto trace of the standard schedule to this file (requires -par 1)")
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}

	if *traceOut != "" && common.Par != 1 {
		// An event trace captures a single run's timeline; refusing the
		// parallel pool outright is what guarantees the file can never
		// interleave concurrent runs.
		log.Fatal("-trace requires -par 1 (a trace file records one run's event timeline)")
	}

	stopProfile, err := common.StartProfile()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	s := experiments.DefaultSetup()
	s.Procs = *procs
	s.Iterations = *iters
	s.Pool = common.Pool()
	s.Obs = common.Collector()
	if *partitions > 0 {
		s.Partitions = []int{*partitions}
	}
	bnrE := experiments.BnrE()
	mdc := experiments.MDC()

	var names []string
	switch {
	case *all:
		names = experiments.TableNames()
	case *table != "":
		names = []string{*table}
	case *traceOut == "":
		log.Fatal("pass -table <name>, -all, or -trace <file> (see -h)")
	}

	tables, err := experiments.RenderSet(names, bnrE, mdc, s)
	if err != nil {
		log.Fatal(err)
	}
	for _, text := range tables {
		fmt.Println(text)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		cp, err := experiments.WriteTrace(bnrE, s, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: wrote %s (open at https://ui.perfetto.dev)\n", *traceOut)
		fmt.Printf("trace: critical path %.3fs ending on node %d, %d hops, %d steps\n",
			float64(cp.TotalNs)/1e9, cp.EndTrack, cp.Hops, len(cp.Steps))
		fmt.Printf("trace: on path: compute %.3fs, packet %.3fs, blocked %.3fs, barrier %.3fs, network %.3fs\n",
			cp.Seconds(tracev.CatCompute), cp.Seconds(tracev.CatPacket),
			cp.Seconds(tracev.CatBlocked), cp.Seconds(tracev.CatBarrier),
			cp.Seconds(tracev.CatNetwork))
	}

	if err := common.WriteSnapshot(s.Obs); err != nil {
		log.Fatal(err)
	}
}
