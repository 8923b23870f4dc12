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
//
// Every independent simulation fans out across -par workers; results are
// merged in submission order, so the output bytes are identical at every
// -par value. A Perfetto trace of the standard schedule is
// `locusroute -backend mp-des -trace out.json`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"locusroute/internal/cli"
	"locusroute/internal/experiments"
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

	s := experiments.DefaultSetup()
	s.Procs = *procs
	s.Iterations = *iters
	s.Pool = common.Pool()
	s.Obs = common.Collector()
	if *partitions > 0 {
		s.Partitions = []int{*partitions}
	}

	var names []string
	switch {
	case *all:
		names = experiments.TableNames()
	case *table != "":
		names = []string{*table}
	default:
		log.Fatal("pass -table <name> or -all (see -h)")
	}

	tables, err := experiments.RenderSet(names, experiments.BnrE(), experiments.MDC(), s)
	if err != nil {
		log.Fatal(err)
	}
	for _, text := range tables {
		fmt.Println(text)
	}

	if err := common.WriteSnapshot(os.Stdout, os.Args[1:], s.Obs); err != nil {
		log.Fatal(err)
	}
}
