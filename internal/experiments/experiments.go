// Package experiments contains one driver per table of the paper's
// evaluation (Section 5), plus the Section 5.1.3 blocking/mixed
// comparisons and the Section 5.3.3 locality measure. Each driver returns
// typed rows and can render itself as an aligned text table; the cmd/paper
// binary and the repository benchmarks are thin wrappers around these.
//
// The benchmark circuits are seeded synthetic stand-ins for the paper's
// unpublished bnrE and MDC netlists (see internal/circuit); absolute
// numbers therefore differ from the paper, but the comparative shapes the
// paper's conclusions rest on are reproduced (EXPERIMENTS.md records
// paper-vs-measured for every row).
//
// # Parallel driver
//
// Every independent unit of work — each cell of a schedule sweep, each
// cache replay, each ablation point, each robustness seed×check pair —
// fans out through cells/par.Gather against a forked Setup, bounded by
// Setup.Pool at the leaf simulations only. Results and observability
// documents are merged in submission order, never completion order, so a
// driver's output (rows, rendered tables, and -json documents) is a pure
// function of its inputs regardless of the pool's capacity.
//
// RenderSet also simulates each distinct message passing configuration
// once: -all requests 65 DES runs, of which 50 differ (the standard
// SRD=2 SLD=10 run alone appears in eight tables). A run is keyed on
// everything that determines it — the circuit, the assignment's contents
// and order, and the whole mp.Config — and a repeat waits for the first
// request outside the pool, then shares its read-only Result and records
// its own -json document under its own label. Event-traced runs are
// never shared. The memo holds what the tables read and no arrays: a
// Result is kept without its Final cost array, and a key is the sha256
// digest of the configuration's text, not the text.
package experiments

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"

	"locusroute/internal/assign"
	"locusroute/internal/cache"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/mp"
	"locusroute/internal/obs"
	"locusroute/internal/par"
	"locusroute/internal/report"
	"locusroute/internal/route"
	"locusroute/internal/sm"
	"locusroute/internal/trace"
)

// DefaultSeed fixes the benchmark circuit generation.
const DefaultSeed = 1

// BnrE returns the bnrE-like benchmark circuit (420 wires, 10x341).
func BnrE() *circuit.Circuit { return circuit.MustGenerate(circuit.BnrELike(DefaultSeed)) }

// MDC returns the MDC-like benchmark circuit (573 wires, 12x386).
func MDC() *circuit.Circuit { return circuit.MustGenerate(circuit.MDCLike(DefaultSeed)) }

// Setup carries the choices shared by all experiments.
type Setup struct {
	// Procs is the processor count (paper default: 16, a 4x4 grid).
	Procs int
	// Iterations of rip-up-and-reroute.
	Iterations int
	// Threshold is the ThresholdCost of the standard wire assignment
	// (the paper's tables 1, 2 and 6 use a locality assignment;
	// assign.ThresholdStandard reproduces their configuration).
	Threshold int
	// Obs, when non-nil, collects one observability document per routing
	// run the drivers perform (cmd/paper -json). Nil disables collection;
	// the rendered tables are identical either way.
	Obs *obs.Collector
	// Pool bounds how many leaf simulations (DES runs, traced routings,
	// cache replays) execute concurrently. Nil leaves the fan-out
	// unbounded; par.New(1) is the serial mode. Results are merged in
	// submission order, so output never depends on the pool's capacity.
	Pool *par.Pool
	// Partitions is the leaf-count sweep of the partition table (nil
	// sweeps 1, 2, 4, 8). Only the "partition" table reads it.
	Partitions []int

	memo *runMemo // RenderSet's shared DES runs; nil runs every request
}

// DefaultSetup returns the 16-processor configuration most tables use.
func DefaultSetup() Setup {
	return Setup{Procs: 16, Iterations: route.DefaultParams().Iterations, Threshold: assign.ThresholdStandard}
}

// Fork returns a copy of s whose collector (when recording) is a fresh
// private one, plus a drain function returning the documents the forked
// copy accumulated. The parallel drivers run each independent cell on a
// forked setup and Adopt the drained documents in submission order, which
// keeps -json output byte-identical at every pool capacity.
func (s Setup) Fork() (Setup, func() []*obs.Run) {
	if !s.Obs.Enabled() {
		return s, func() []*obs.Run { return nil }
	}
	sub := s
	sub.Obs = obs.NewCollector()
	return sub, sub.Obs.Take
}

// cells is the drivers' fan-out primitive: fn runs for every item on its
// own goroutine against a forked setup, and once all cells finish, their
// results and observability documents are stitched together in item
// order. Heavy work inside fn must gate itself with the setup's pool
// (runConfigured and smTraffic do).
func cells[T, R any](s Setup, items []T, fn func(T, Setup) (R, error)) ([]R, error) {
	type cell struct {
		out  R
		runs []*obs.Run
	}
	cs, err := par.Gather(items, func(_ int, item T) (cell, error) {
		sub, drain := s.Fork()
		out, err := fn(item, sub)
		return cell{out: out, runs: drain()}, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]R, len(cs))
	for i, c := range cs {
		out[i] = c.out
		s.Obs.Adopt(c.runs)
	}
	return out, nil
}

func (s Setup) routerParams() route.Params {
	p := route.DefaultParams()
	p.Iterations = s.Iterations
	return p
}

func (s Setup) partition(c *circuit.Circuit) (geom.Partition, error) {
	px, py := geom.SquarestFactors(s.Procs)
	part, err := geom.NewPartition(c.Grid, px, py)
	if err != nil {
		return geom.Partition{}, fmt.Errorf("experiments: partition %d procs on %q: %w", s.Procs, c.Name, err)
	}
	return part, nil
}

func (s Setup) assignment(c *circuit.Circuit) (*assign.Assignment, error) {
	part, err := s.partition(c)
	if err != nil {
		return nil, err
	}
	return assign.AssignThreshold(c, part, s.Threshold), nil
}

// MPRow is one message passing run in the units of the paper's tables.
type MPRow struct {
	Label     string
	Strategy  mp.Strategy
	CktHt     int64
	Occupancy int64
	MBytes    float64
	Seconds   float64
}

// runMP executes one message passing cell with the setup's standard
// assignment.
func runMP(c *circuit.Circuit, s Setup, st mp.Strategy, label string) (MPRow, error) {
	asn, err := s.assignment(c)
	if err != nil {
		return MPRow{}, err
	}
	return runMPAssigned(c, s, st, asn, label)
}

func runMPAssigned(c *circuit.Circuit, s Setup, st mp.Strategy, asn *assign.Assignment, label string) (MPRow, error) {
	cfg := mp.DefaultConfig(st)
	cfg.Procs = s.Procs
	cfg.Router = s.routerParams()
	res, err := runConfigured(c, s, cfg, asn, label)
	if err != nil {
		return MPRow{}, err
	}
	return MPRow{
		Label:     label,
		Strategy:  st,
		CktHt:     res.CircuitHeight,
		Occupancy: res.Occupancy,
		MBytes:    res.MBytes(),
		Seconds:   res.Time.Seconds(),
	}, nil
}

// runConfigured executes one message passing run from a fully prepared
// config (callers set ablation knobs before handing it over). The DES run
// holds a pool slot — it is a leaf computation; a repeat of a run the
// setup's memo has seen waits for it without one. When the setup carries
// a collector, the run's document is recorded under label.
func runConfigured(c *circuit.Circuit, s Setup, cfg mp.Config, asn *assign.Assignment, label string) (mp.Result, error) {
	run, first := s.memo.claimDES(c, cfg, asn)
	if first {
		s.Pool.Run(func() { run.val, run.err = mp.Run(c, asn, cfg) })
		run.val.Final = nil // no table reads it; the memo would hold it to the end
		close(run.done)
	}
	<-run.done
	if run.err != nil {
		return mp.Result{}, fmt.Errorf("experiments: mp run %q: %w", label, run.err)
	}
	if s.Obs.Enabled() {
		s.Obs.Append(mp.ObsRun(label, c.Name, cfg, run.val))
	}
	return run.val, nil
}

// runMemo holds the DES runs and the traced shared memory runs of one
// RenderSet by configuration. A nil memo shares nothing.
type runMemo struct {
	des memoTable[mp.Result]
	sm  memoTable[smRun]
}

// smRun is what a traced shared memory run shares: its Result and the
// coherence simulators its trace fed, read-only once the run is done.
type smRun struct {
	res  sm.Result
	sims []*cache.Simulator
}

// memoTable holds runs of one kind by the digest of their key, and counts
// the runs it handed out to execute.
type memoTable[V any] struct {
	mu       sync.Mutex
	runs     map[[sha256.Size]byte]*memoRun[V]
	executed int
}

// memoRun is one run; val and err are written once, before done closes,
// and only read after.
type memoRun[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newRun[V any]() *memoRun[V] { return &memoRun[V]{done: make(chan struct{})} }

// claim returns the run under key and whether the caller is the first to
// ask, and so must execute it and close done.
func (t *memoTable[V]) claim(key string) (*memoRun[V], bool) {
	run, digest := newRun[V](), sha256.Sum256([]byte(key))
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.runs[digest]; ok {
		return prev, false
	}
	if t.runs == nil {
		t.runs = make(map[[sha256.Size]byte]*memoRun[V])
	}
	t.runs[digest] = run
	t.executed++
	return run, true
}

// claimDES claims the DES run of this configuration. The key is what
// determines a run: the circuit, and the assignment and the config in Go
// syntax (%#v prints sim.Time as an integer, not its rounded String).
// Event-traced runs are never shared.
func (m *runMemo) claimDES(c *circuit.Circuit, cfg mp.Config, asn *assign.Assignment) (*memoRun[mp.Result], bool) {
	if m == nil || cfg.Trace != nil {
		return newRun[mp.Result](), true
	}
	return m.des.claim(fmt.Sprintf("%p %#v %#v", c, *asn, cfg))
}

// claimSM claims the traced run of this configuration feeding simulators
// of these line sizes, keyed as claimDES keys a DES run: the circuit, the
// assignment's contents (none in dynamic order), the config and the line
// sizes.
func (m *runMemo) claimSM(c *circuit.Circuit, cfg sm.Config, lineSizes []int) (*memoRun[smRun], bool) {
	if m == nil {
		return newRun[smRun](), true
	}
	var asn any
	if cfg.Assignment != nil {
		asn = *cfg.Assignment
	}
	cfg.Assignment = nil
	return m.sm.claim(fmt.Sprintf("%p %v %#v %#v", c, lineSizes, asn, cfg))
}

// smTraffic runs the traced shared memory router straight into one
// coherence simulator per line size of pass — the paper's Tango pipe: the
// interleaved reference trace is consumed as it is produced and never
// stored, and every line size a table needs comes from the one pass.
// It returns the simulators of lineSizes, each of which pass must hold:
// a table that needs fewer line sizes than another requesting the same
// run passes that one's set, and the setup's memo runs the pass once for
// both (Section 5.2's shared memory row is Table 3's 8-byte simulator).
// The run holds a pool slot; a repeat waits for it without one. When a
// collector is recording, the requester's own document carries the
// traffic of its lineSizes' simulators, in their order.
func smTraffic(c *circuit.Circuit, s Setup, order sm.Order, asn *assign.Assignment, label string, pass []int, lineSizes ...int) (sm.Result, []*cache.Simulator, error) {
	cfg := sm.DefaultConfig()
	cfg.Procs = s.Procs
	cfg.Router = s.routerParams()
	cfg.Order = order
	cfg.Assignment = asn
	run, first := s.memo.claimSM(c, cfg, pass)
	if first {
		run.val.sims, run.err = simulators(s.Procs, pass)
		if run.err == nil {
			s.Pool.Run(func() {
				run.val.res, run.err = sm.RunTraced(c, cfg, func(batch []trace.Ref) {
					for _, sim := range run.val.sims {
						for _, r := range batch {
							sim.Access(r)
						}
					}
				})
			})
			run.val.res.Final = nil // as runConfigured: no table reads it
		}
		close(run.done)
	}
	<-run.done
	if run.err != nil {
		return sm.Result{}, nil, fmt.Errorf("experiments: sm run %q: %w", label, run.err)
	}
	sims := make([]*cache.Simulator, len(lineSizes))
	for i, ls := range lineSizes {
		sims[i] = run.val.sims[slices.Index(pass, ls)]
	}
	if s.Obs.Enabled() {
		doc := s.Obs.Append(sm.ObsRun(label, c.Name, cfg, run.val.res))
		for _, sim := range sims {
			doc.Cache = append(doc.Cache, sim.Doc())
		}
	}
	return run.val.res, sims, nil
}

// simulators returns one coherence simulator per line size.
func simulators(procs int, lineSizes []int) ([]*cache.Simulator, error) {
	sims := make([]*cache.Simulator, len(lineSizes))
	for i, ls := range lineSizes {
		var err error
		if sims[i], err = cache.New(procs, ls); err != nil {
			return nil, err
		}
	}
	return sims, nil
}

// renderMPTable renders MP rows with the paper's column names.
func renderMPTable(title string, rows []MPRow) string {
	t := report.NewTable(title,
		"Schedule", "Ckt Ht.", "Occup. Factor", "MBytes Xfrd.", "Time (s)")
	for _, r := range rows {
		t.Add(r.Label,
			fmt.Sprintf("%d", r.CktHt),
			fmt.Sprintf("%d", r.Occupancy),
			fmt.Sprintf("%.3f", r.MBytes),
			report.Seconds(r.Seconds))
	}
	return t.String()
}
