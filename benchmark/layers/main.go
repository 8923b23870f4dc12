// Command layers is the per-layer half of the repository benchmark: it
// times calls into each layer's public functions from outside, replays
// serve_read against a tracing locusd to split a request's latency into
// the server's stages and everything outside them, and runs the named
// workload with a span per operation. Spans are kept in memory and
// written as one Chrome-trace file when the run ends.
//
// It is a program of its own, apart from benchmark/, because it imports
// internal packages: a refactor that breaks a probe breaks this build
// only, and the end-to-end gate keeps working. benchmark -trace 1 builds
// and runs it; it can also be run directly:
//
//	go run ./benchmark/layers -workload serve_read -out /tmp/traces
//
// It prints one JSON report: the environment, the checks, and every
// per-layer metric of BENCHMARK.json by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"locusroute/benchmark/harness"
)

func main() {
	var (
		workload = flag.String("workload", harness.ServeRead, "workload whose traced run feeds the client.* metrics")
		seed     = flag.Int64("seed", 1, "seed for the generated circuits and the request stream")
		seconds  = flag.Float64("seconds", 15, "measured window of the traced workload run")
		quick    = flag.Bool("quick", false, "smoke: 3 s traced run, shortest probes")
		out      = flag.String("out", "", "directory for the Chrome-trace file (default: a temp dir, removed on exit)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *quick, *out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// probe is the state every layer probe shares.
type probe struct {
	sb      *harness.Sandbox
	rec     *harness.Recorder
	seed    int64
	quick   bool
	metrics map[string]harness.Metric
	checks  []harness.Check
}

func (p *probe) set(name string, m harness.Metric) { p.metrics[name] = m }

func (p *probe) check(name string, ok bool, format string, args ...any) {
	c := harness.Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	p.checks = append(p.checks, c)
}

// reps picks a repetition count: n normally, the smaller q under -quick.
func (p *probe) reps(n, q int) int {
	if p.quick {
		return q
	}
	return n
}

// timed runs f n times inside spans and returns each duration in unit
// (time.Millisecond for ms, and so on).
func (p *probe) timed(layer, name string, n int, unit time.Duration, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(p.rec.Time(layer, name, f)) / float64(unit)
	}
	return out
}

func run(workload string, seed int64, seconds float64, quick bool, out string) error {
	sb, err := harness.NewSandbox()
	if err != nil {
		return err
	}
	defer sb.Close()
	if out == "" {
		if out, err = sb.TempDir("traces"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	built, err := sb.Build(harness.Binaries...)
	if err != nil {
		return err
	}
	p := &probe{sb: sb, rec: &harness.Recorder{}, seed: seed, quick: quick, metrics: map[string]harness.Metric{}}
	p.set("client.build_s", harness.Single("s", built.Seconds()))

	if quick {
		seconds = harness.QuickSeconds
	}
	res, err := p.serving(workload, seconds)
	if err != nil {
		return err
	}
	for _, step := range []func() error{
		p.wireCodec, p.routeKernel, p.backends, p.messagePassing,
		p.sharedMemory, p.store, p.inProcess, p.experiments,
	} {
		if err := step(); err != nil {
			return err
		}
	}

	rep := harness.NewReport(res, harness.ReadEnv(), seed, seconds, quick)
	rep.Traced = true
	rep.Checks = append(rep.Checks, p.checks...)
	for _, c := range p.checks {
		rep.Correct = rep.Correct && c.OK
	}
	rep.PerLayer = p.metrics

	f, err := os.Create(filepath.Join(out, workload+".trace.json"))
	if err != nil {
		return err
	}
	err = p.rec.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "layers: %d spans written to %s\n", p.rec.Len(), f.Name())
	return json.NewEncoder(os.Stdout).Encode(rep)
}
