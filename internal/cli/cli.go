// Package cli is the shared flag plumbing of the locusroute commands:
// the -par/-json/-cpuprofile trio, benchmark/circuit selection, the
// serving daemon's policy elements, and the helpers that turn those flags
// into pools, collectors and snapshots. Every command registers the
// subsets it supports, so flag names, defaults, help text and
// validation stay uniform across locusroute, paper and locusd.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"locusroute/internal/circuit"
	"locusroute/internal/obs"
	"locusroute/internal/par"
	"locusroute/internal/policy"
)

// parErrorf is the uniform -par validation failure: every command
// rejects -par values below one with this exact text.
func parErrorf(n int) error {
	return fmt.Errorf("-par must be at least 1 (got %d)", n)
}

// Common bundles the flags shared across commands. Zero value plus the
// Add* registrars is the intended use; Validate runs after flag.Parse.
type Common struct {
	// Par is the concurrent-simulation bound (-par). Defaults to
	// GOMAXPROCS; values below 1 are rejected by Validate.
	Par int
	// JSONPath is the -json observability document destination ("" =
	// off, "-" = stdout).
	JSONPath string
	// CPUProfile is the -cpuprofile destination ("" = off).
	CPUProfile string
	// Bench and Seed select a builtin benchmark circuit (-bench, -seed).
	Bench string
	Seed  int64
	// CircuitFile overrides the builtin benchmark with a circuit file
	// (-circuit), when registered.
	CircuitFile string
	// Policy flags (AddPolicy): the serving daemon's result cache and
	// EDF scheduler. Zero values disable each element.
	CacheSize int
	EDF       bool

	name      string
	hasPar    bool
	hasPolicy bool
}

// New returns a Common for the named command; the name prefixes the
// recorded -json command line.
func New(name string) *Common {
	return &Common{name: name}
}

// AddPar registers -par. The default is GOMAXPROCS; detail extends the
// shared help text with command-specific behaviour.
func (c *Common) AddPar(fs *flag.FlagSet, detail string) {
	help := "concurrent simulations (default GOMAXPROCS)"
	if detail != "" {
		help += "; " + detail
	}
	fs.IntVar(&c.Par, "par", runtime.GOMAXPROCS(0), help)
	c.hasPar = true
}

// AddObs registers -json and -cpuprofile.
func (c *Common) AddObs(fs *flag.FlagSet) {
	fs.StringVar(&c.JSONPath, "json", "", `write an observability JSON document to this file ("-" = stdout)`)
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
}

// AddBench registers -bench and -seed (builtin benchmark selection).
func (c *Common) AddBench(fs *flag.FlagSet) {
	fs.StringVar(&c.Bench, "bench", "bnrE", "builtin benchmark: bnrE or MDC")
	fs.Int64Var(&c.Seed, "seed", 1, "benchmark generator seed")
}

// AddCircuitFile registers -circuit (route a circuit file instead of a
// builtin benchmark).
func (c *Common) AddCircuitFile(fs *flag.FlagSet) {
	fs.StringVar(&c.CircuitFile, "circuit", "", "circuit file to route (text format; overrides -bench)")
}

// AddPolicy registers the serving daemon's policy flags. Both elements
// default to off, and a disabled element is nil (zero-cost).
func (c *Common) AddPolicy(fs *flag.FlagSet) {
	fs.IntVar(&c.CacheSize, "cache-size", 0,
		"result cache entries, keyed by (circuit, wire set, cost epoch) (0 = no cache)")
	fs.BoolVar(&c.EDF, "edf", false,
		"earliest-deadline-first batch ordering and least-critical-first shedding")
	c.hasPolicy = true
}

// Policy returns the element configuration built from the AddPolicy
// flags (the zero Config when AddPolicy was not registered).
func (c *Common) Policy() policy.Config {
	return policy.Config{CacheEntries: c.CacheSize, EDF: c.EDF}
}

// Validate checks the parsed flags; call it right after flag.Parse.
func (c *Common) Validate() error {
	if c.hasPar && c.Par < 1 {
		return parErrorf(c.Par)
	}
	if c.hasPolicy && c.CacheSize < 0 {
		return fmt.Errorf("-cache-size must be >= 0 (got %d)", c.CacheSize)
	}
	return nil
}

// Pool returns the worker pool sized by -par.
func (c *Common) Pool() *par.Pool { return par.New(c.Par) }

// Collector returns an enabled collector when -json was given, else nil
// (the disabled collector).
func (c *Common) Collector() *obs.Collector {
	if c.JSONPath == "" {
		return nil
	}
	return obs.NewCollector()
}

// StartProfile starts the CPU profile when -cpuprofile was given and
// returns the stop function (a no-op otherwise).
func (c *Common) StartProfile() (func(), error) {
	return obs.StartCPUProfile(c.CPUProfile)
}

// LoadCircuit loads the selected circuit: the -circuit file when
// registered and set, else the builtin -bench benchmark at -seed.
func (c *Common) LoadCircuit() (*circuit.Circuit, error) {
	if c.CircuitFile != "" {
		f, err := os.Open(c.CircuitFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return circuit.Read(f)
	}
	switch c.Bench {
	case "bnrE":
		return circuit.Generate(circuit.BnrELike(c.Seed))
	case "MDC":
		return circuit.Generate(circuit.MDCLike(c.Seed))
	}
	return nil, fmt.Errorf("unknown benchmark %q (want bnrE or MDC)", c.Bench)
}

// Command reconstructs the invocation line recorded in -json documents
// from the command's name and the args it parsed.
func (c *Common) Command(args []string) string {
	return strings.Join(append([]string{c.name}, args...), " ")
}

// WriteSnapshot writes the collector's document, recorded under the
// command line args, to the -json destination: stdout for "-", else the
// named file. A nil collector or unset -json is a no-op.
func (c *Common) WriteSnapshot(stdout io.Writer, args []string, col *obs.Collector) error {
	if c.JSONPath == "" || !col.Enabled() {
		return nil
	}
	snap := col.Snapshot(c.Command(args))
	if c.JSONPath == "-" {
		return snap.WriteJSON(stdout)
	}
	return snap.WriteFile(c.JSONPath)
}
