// Command circuitgen generates synthetic standard cell benchmark circuits
// (the bnrE-like and MDC-like stand-ins, or fully parametric ones), dumps
// them in the text format, and describes their statistics.
//
// Usage:
//
//	circuitgen -bench bnrE -o bnrE.ckt          # write a benchmark file
//	circuitgen -bench MDC -describe             # print statistics only
//	circuitgen -bench bnrE -scale 10 -o big.ckt # 10x-scaled preset
//	circuitgen -channels 8 -grids 128 -wires 200 -seed 7 -o custom.ckt
//
// -scale N multiplies the preset (or custom) dimensions: N times the
// wires spread over a grid with about N times the cells, keeping wire
// density comparable (see circuit.Scaled). The 10x bnrE-like preset is
// the benchmark circuit for partition-parallel routing (BENCHMARK.json's
// batch_route workload and part.* rows).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"locusroute/internal/circuit"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("circuitgen: ")
	var (
		bench    = flag.String("bench", "", "builtin benchmark preset: bnrE or MDC (overrides dimension flags)")
		seed     = flag.Int64("seed", 1, "generator seed")
		channels = flag.Int("channels", 8, "routing channels")
		grids    = flag.Int("grids", 128, "routing grid columns")
		wires    = flag.Int("wires", 200, "number of wires")
		meanSpan = flag.Float64("meanspan", 14, "mean horizontal span of short wires")
		longFrac = flag.Float64("longfrac", 0.1, "fraction of long wires")
		scale    = flag.Int("scale", 1, "scale the preset up N times (wires xN, grid cells ~xN)")
		out      = flag.String("o", "", "output file (default stdout)")
		describe = flag.Bool("describe", false, "print statistics instead of the circuit")
	)
	flag.Parse()

	var params circuit.GenParams
	switch *bench {
	case "bnrE":
		params = circuit.BnrELike(*seed)
	case "MDC":
		params = circuit.MDCLike(*seed)
	case "":
		params = circuit.GenParams{
			Name: "custom", Channels: *channels, Grids: *grids, Wires: *wires,
			MeanSpan: *meanSpan, LongFrac: *longFrac, Seed: *seed,
		}
	default:
		log.Fatalf("unknown benchmark %q (want bnrE or MDC)", *bench)
	}
	if *scale > 1 {
		params = circuit.Scaled(params, *scale)
	}

	c, err := circuit.Generate(params)
	if err != nil {
		log.Fatal(err)
	}

	if *describe {
		fmt.Printf("circuit %s: %d channels x %d grids\n", c.Name, c.Grid.Channels, c.Grid.Grids)
		fmt.Println(circuit.ComputeStats(c))
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := circuit.Write(w, c); err != nil {
		log.Fatal(err)
	}
}
