// Command benchmark is the repository benchmark: four workloads driven
// through the system's outermost surfaces, four end-to-end metrics, and
// — with -trace 1 — the per-layer probes of benchmark/layers. See
// README.md beside this file and BENCHMARK.json at the repository root.
//
// Usage (from the repository root):
//
//	go run ./benchmark                          # every workload, end to end
//	go run ./benchmark -workload serve_read     # one workload
//	go run ./benchmark -trace 1 -workload all   # per-layer probes + traced run
//	go run ./benchmark -quick                   # ≤ 25 s smoke, every check
//	go run ./benchmark -compare a.json b.json   # judge b against a
//
// Each workload prints two JSON lines: the full report (environment,
// checks, every metric with sample count, median and quartiles) and
// then the pipeline's result line. The exit code is non-zero when any
// correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"locusroute/benchmark/harness"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: serve_read, serve_mixed, batch_route, paper_sim or all")
		seed     = flag.Int64("seed", 1, "seed for the generated circuits and the request stream")
		seconds  = flag.Float64("seconds", 15, "measured window per workload, cut into five rounds")
		trace    = flag.Int("trace", 0, "1 = run the per-layer probes and the traced run (benchmark/layers) instead of the end-to-end measurement")
		quick    = flag.Bool("quick", false, "smoke: one 3 s round per workload, paper_sim renders table 1 only; every correctness check still runs")
		compare  = flag.Bool("compare", false, "compare two files of reports: -compare parent.json change.json")
		out      = flag.String("out", "", "directory for the traced run's Chrome-trace files (default: a temp dir, removed on exit)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files: parent.json change.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if err := measure(*workload, *seed, *seconds, *trace == 1, *quick, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func measure(workload string, seed int64, seconds float64, traced, quick bool, out string) error {
	spec, err := harness.LoadSpec()
	if err != nil {
		return err
	}
	names := harness.Workloads
	if workload != "all" {
		names = []string{workload}
	}
	sb, err := harness.NewSandbox()
	if err != nil {
		return err
	}
	defer sb.Close()
	if quick {
		seconds = harness.QuickSeconds
	}

	// One report per workload, end to end or per layer; everything after
	// is the same for both.
	var report func(name string) (*harness.Report, error)
	decl := spec.EndToEnd
	if traced {
		decl = spec.PerLayer
		if _, err := sb.Build("./benchmark/layers"); err != nil {
			return err
		}
		report = func(name string) (*harness.Report, error) { return runLayers(sb, name, seed, seconds, quick, out) }
	} else {
		if _, err := sb.Build(harness.Binaries...); err != nil {
			return err
		}
		env := harness.ReadEnv()
		report = func(name string) (*harness.Report, error) {
			res, err := harness.Run(sb, name, harness.Sizing(seed, seconds, quick))
			if err != nil {
				return nil, err
			}
			rep := harness.NewReport(res, env, seed, seconds, quick)
			rep.EndToEnd = res.EndToEnd()
			return rep, nil
		}
	}
	incorrect := 0
	for _, name := range names {
		rep, err := report(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := rep.Emit(os.Stdout, decl); err != nil {
			return err
		}
		if !rep.Correct {
			incorrect++
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload(s) failed a correctness check (see the checks in each report)", incorrect)
	}
	return nil
}

// runLayers runs the built benchmark/layers program for one workload and
// returns the report it printed. The probes live in their own program
// because they call into internal packages: when a refactor breaks one,
// this package — the end-to-end gate — still builds.
func runLayers(sb *harness.Sandbox, name string, seed int64, seconds float64, quick bool, out string) (*harness.Report, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if quick {
		args = append(args, "-quick")
	}
	if out != "" {
		args = append(args, "-out", out)
	}
	child, err := sb.Start("layers", args...)
	if err != nil {
		return nil, err
	}
	if err := child.Wait(170 * time.Second); err != nil {
		return nil, fmt.Errorf("benchmark/layers: %w; stderr tail:\n%s", err, child.StderrTail())
	}
	var rep harness.Report
	if err := json.Unmarshal(child.Stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("benchmark/layers: unreadable report: %w", err)
	}
	return &rep, nil
}
