// Command locusroute routes a standard cell circuit on one of the four
// backends of pkg/locusroute and prints what that backend measures:
// quality (sequential, partitioned), simulated time and mesh traffic
// (mp-des), or the coherence simulator's bus traffic per cache line
// size (sm-traced).
//
// Usage:
//
//	locusroute [-backend sequential|partitioned|mp-des|sm-traced] [-bench bnrE|MDC]
//	           [-circuit file] [-procs N] [-iters N] [-heatmap] [-report] [-json file]
//	locusroute -backend partitioned -partitions 4 [-negotiate]
//	locusroute -backend mp-des [-sld N -srd N -rld N -rrd N -blocking] [-assign rr|threshold]
//	           [-threshold 1000] [-packets bbox|wire|region] [-dynamic] [-strict] [-trace f]
//	locusroute -backend sm-traced [-assign dynamic|rr|threshold] [-lines 4,8,16,32]
//	           [-cache-lines N] [-par N] [-dump f | -replay f]
//
// Only the flags given on the command line become backend options, so
// an unset -procs or -assign is the backend's paper default, and a flag
// the backend does not take fails with pkg/locusroute's rejection.
//
// -trace writes the mp-des run's event timeline as a Chrome trace-event
// document (open it at ui.perfetto.dev) and prints the run's critical
// path, the chain of dependent events that sets the simulated time.
// sm-traced replays its reference trace at each -lines size across -par
// workers, printing in line-size order, so the output is identical at
// every -par value; -dump writes the trace to a file instead, and
// -replay replays a dumped file without routing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"locusroute/internal/assign"
	"locusroute/internal/cache"
	"locusroute/internal/cli"
	"locusroute/internal/geom"
	"locusroute/internal/mp"
	"locusroute/internal/obs"
	"locusroute/internal/par"
	"locusroute/internal/report"
	"locusroute/internal/route"
	"locusroute/internal/trace"
	"locusroute/internal/tracev"
	"locusroute/pkg/locusroute"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("locusroute: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// smFlags configure the sm-traced report; every other backend rejects
// them.
var smFlags = []string{"lines", "dump", "replay", "cache-lines"}

// packetStructures maps -packets values to the update packet structures.
var packetStructures = map[string]locusroute.PacketStructure{
	"bbox":   locusroute.PacketsBbox,
	"wire":   locusroute.PacketsWireBased,
	"region": locusroute.PacketsWholeRegion,
}

// command is one parsed command line.
type command struct {
	common       *cli.Common
	kind         locusroute.Kind
	opts         []locusroute.Option
	col          *obs.Collector
	tracer       *tracev.Tracer // nil without -trace
	heat, report bool
	trace        string
	lines        []int
	dump, replay string
	cacheLines   int
}

// parse reads the command line. Only the flags given on it become
// backend options; pkg/locusroute rejects the ones the chosen backend
// does not take.
func parse(args []string) (*command, error) {
	fs := flag.NewFlagSet("locusroute", flag.ContinueOnError)
	cmd := &command{common: cli.New("locusroute")}
	cmd.common.AddPar(fs, "bounds concurrent sm-traced cache replays; output is identical at every value")
	cmd.common.AddObs(fs)
	cmd.common.AddBench(fs)
	cmd.common.AddCircuitFile(fs)
	backend := fs.String("backend", string(locusroute.Sequential),
		fmt.Sprintf("routing backend: one of %v", locusroute.Kinds()))
	procs := fs.Int("procs", 0, "processors: simulated nodes, logical processes or partitioned workers (default 16; sequential runs on 1)")
	iters := fs.Int("iters", route.DefaultParams().Iterations, "routing iterations")
	partitions := fs.Int("partitions", 0, "leaf regions of the partitioned backend (default 4; 1 is bit-identical to sequential)")
	negotiate := fs.Bool("negotiate", false, "use the negotiated-congestion schedule (sequential, partitioned)")
	fs.BoolVar(&cmd.heat, "heatmap", false, "render the final cost array as ASCII art")
	fs.BoolVar(&cmd.report, "report", false, "print the per-channel congestion analysis")
	var schedule locusroute.Strategy
	fs.IntVar(&schedule.SendLocData, "sld", 0, "mp-des: wires between SendLocData broadcasts (0 = off)")
	fs.IntVar(&schedule.SendRmtData, "srd", 0, "mp-des: wires between SendRmtData pushes (0 = off)")
	fs.IntVar(&schedule.ReqLocData, "rld", 0, "mp-des: ReqRmtData packets before a ReqLocData pull (0 = off)")
	fs.IntVar(&schedule.ReqRmtData, "rrd", 0, "mp-des: region touches before a ReqRmtData request (0 = off)")
	blocking := fs.Bool("blocking", false, "mp-des: block for outstanding ReqRmtData responses")
	method := fs.String("assign", "", "wire distribution: dynamic (sm-traced only), rr or threshold (default dynamic for sm-traced, threshold for mp-des)")
	threshold := fs.Int("threshold", assign.ThresholdStandard, "ThresholdCost of -assign threshold (-1 = infinity)")
	packets := fs.String("packets", "bbox", "mp-des: update packet structure: bbox, wire or region")
	dynamic := fs.Bool("dynamic", false, "mp-des: dynamic wire assignment over the network (ablation)")
	strict := fs.Bool("strict", false, "mp-des: strict region ownership, no replicated views (ablation)")
	fs.StringVar(&cmd.trace, "trace", "", "mp-des: write a Chrome/Perfetto trace of the run to this file")
	lines := fs.String("lines", "4,8,16,32", "sm-traced: comma-separated cache line sizes (bytes)")
	fs.StringVar(&cmd.dump, "dump", "", "sm-traced: write the shared reference trace to this file instead of replaying it")
	fs.StringVar(&cmd.replay, "replay", "", "sm-traced: skip routing; replay this trace file instead")
	fs.IntVar(&cmd.cacheLines, "cache-lines", 0, "sm-traced: finite cache capacity in lines (0 = infinite, the paper's assumption)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := cmd.common.Validate(); err != nil {
		return nil, err
	}
	set := map[string]bool{} // the flags given on the command line
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	cmd.kind = locusroute.Kind(*backend)
	for _, name := range smFlags {
		if set[name] && cmd.kind != locusroute.SMTraced {
			return nil, fmt.Errorf("-%s applies to -backend %s, not %s", name, locusroute.SMTraced, cmd.kind)
		}
	}
	for _, field := range strings.Split(*lines, ",") {
		ls, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return nil, fmt.Errorf("bad line size %q: %v", field, err)
		}
		cmd.lines = append(cmd.lines, ls)
	}

	cmd.col = cmd.common.Collector()
	cmd.opts = []locusroute.Option{locusroute.WithObserver(cmd.col)}
	if *method == "" && set["threshold"] {
		*method = "threshold"
	}
	switch {
	case set["threshold"] && *method != "threshold":
		return nil, fmt.Errorf("-threshold applies to -assign threshold, not %s", *method)
	case *method == "dynamic":
		cmd.opts = append(cmd.opts, locusroute.WithDynamicOrder())
	case *method == "rr":
		cmd.opts = append(cmd.opts, locusroute.WithRoundRobin())
	case *method == "threshold":
		cmd.opts = append(cmd.opts, locusroute.WithThreshold(*threshold))
	case *method != "":
		return nil, fmt.Errorf("unknown assignment %q (want dynamic, rr or threshold)", *method)
	}
	ps, ok := packetStructures[*packets]
	if !ok {
		return nil, fmt.Errorf("unknown packet structure %q (want bbox, wire or region)", *packets)
	}
	if cmd.trace != "" {
		cmd.tracer = tracev.New(0)
	}
	for _, o := range []struct {
		given bool
		opt   locusroute.Option
	}{
		{set["procs"], locusroute.WithProcs(*procs)},
		{set["iters"], locusroute.WithIterations(*iters)},
		{set["partitions"], locusroute.WithPartitions(*partitions)},
		{*negotiate, locusroute.WithNegotiatedCongestion()},
		{set["sld"] || set["srd"] || set["rld"] || set["rrd"], locusroute.WithStrategy(schedule)},
		{*blocking, locusroute.WithBlocking()},
		{set["packets"], locusroute.WithPackets(ps)},
		{*dynamic, locusroute.WithDynamicWires()},
		{cmd.tracer != nil, locusroute.WithTracer(cmd.tracer)},
		{*strict, locusroute.WithStrictOwnership()}, // after the distribution, which it overrides
	} {
		if o.given {
			cmd.opts = append(cmd.opts, o.opt)
		}
	}
	return cmd, nil
}

// run parses args, routes (or replays a dumped trace) and writes the
// backend's report to stdout.
func run(args []string, stdout io.Writer) error {
	cmd, err := parse(args)
	if err != nil {
		return err
	}
	backend, err := locusroute.New(cmd.kind, cmd.opts...)
	if err != nil {
		return err
	}
	stopProfile, err := cmd.common.StartProfile()
	if err != nil {
		return err
	}
	defer stopProfile()
	if cmd.replay != "" {
		err = cmd.replayFile(stdout)
	} else {
		err = cmd.route(stdout, backend)
	}
	if err != nil {
		return err
	}
	return cmd.common.WriteSnapshot(stdout, args, cmd.col)
}

// route routes the circuit and prints the backend's report.
func (cmd *command) route(w io.Writer, backend locusroute.Backend) error {
	c, err := cmd.common.LoadCircuit()
	if err != nil {
		return err
	}
	res, err := backend.Route(context.Background(), locusroute.Request{Circuit: c})
	if err != nil {
		return err
	}
	switch cmd.kind {
	case locusroute.MPDES:
		err = cmd.reportMP(w, c, res)
	case locusroute.SMTraced:
		err = cmd.reportSM(w, c, res)
	default:
		fmt.Fprintf(w, "circuit %s: %d wires, %d channels x %d grids\n",
			c.Name, len(c.Wires), c.Grid.Channels, c.Grid.Grids)
		fmt.Fprintf(w, "%s: circuit height %d, occupancy %d (%d wire routings, %d cells examined)\n",
			cmd.kind, res.CircuitHeight, res.Occupancy, res.WiresRouted, res.CellsExamined)
	}
	if err != nil {
		return err
	}
	if cmd.heat {
		fmt.Fprintf(w, "\ncost array congestion (rows = channels):\n%s", res.Final.Heatmap(100))
	}
	if cmd.report {
		fmt.Fprintf(w, "\n%s", report.Analyze(res.Final, 10))
	}
	return nil
}

// reportMP prints the message passing run: the schedule and mesh, the
// wire assignment's locality, quality, simulated time and the traffic
// per packet kind, then the -trace summary.
func (cmd *command) reportMP(w io.Writer, c *locusroute.Circuit, res locusroute.Result) error {
	mpRes := res.MP
	px, py := geom.SquarestFactors(res.Procs)
	fmt.Fprintf(w, "circuit %s on %d processors (%dx%d mesh), strategy %v\n",
		c.Name, res.Procs, px, py, res.Strategy)
	fmt.Fprintf(w, "locality measure: %.2f hops, load imbalance %.2fx\n", res.Locality, res.Imbalance)
	fmt.Fprintf(w, "circuit height:   %d\noccupancy factor: %d\n", res.CircuitHeight, res.Occupancy)
	fmt.Fprintf(w, "execution time:   %v\n", mpRes.Time)
	fmt.Fprintf(w, "update traffic:   %.3f MBytes (%d packets, contention delay %v)\n",
		mpRes.MBytes(), mpRes.Net.Packets, mpRes.Net.ContentionDelay)
	fmt.Fprintf(w, "busy time split:  %.0f%% routing, %.0f%% update machinery\n",
		(1-mpRes.MessageFraction())*100, mpRes.MessageFraction()*100)

	for _, k := range slices.Sorted(maps.Keys(mpRes.BytesByKind)) {
		fmt.Fprintf(w, "  %-12s %8d bytes in %d packets\n",
			k, mpRes.BytesByKind[k], mpRes.PacketsByKind[k])
	}
	if cmd.tracer == nil {
		return nil
	}
	return writeTrace(w, cmd.trace, cmd.tracer, mpRes.CritPath, c.Name, res.Procs)
}

// writeTrace exports the run's event timeline as a Chrome trace-event
// document and prints its critical path: the chain of dependent events
// that sets the simulated time, with each wait resolved to the packet
// (and sender) that ended it.
func writeTrace(w io.Writer, path string, tracer *tracev.Tracer, cp *tracev.CriticalPath, circuitName string, procs int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tracer.WriteChrome(f, mp.ChromeOptions(circuitName, procs))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "trace:            wrote %s (open at https://ui.perfetto.dev)\n", path)
	if dropped := tracer.Dropped(); dropped > 0 {
		fmt.Fprintf(w, "trace:            ring overflowed, oldest %d events dropped (early time reads as untraced)\n", dropped)
	}
	fmt.Fprintf(w, "critical path:    %.3fs ending on node %d, %d packet hops, %d steps\n",
		float64(cp.TotalNs)/1e9, cp.EndTrack, cp.Hops, len(cp.Steps))
	fmt.Fprintf(w, "  on path:        compute %.3fs, packet %.3fs, blocked %.3fs, barrier %.3fs, network %.3fs, untraced %.3fs\n",
		cp.Seconds(tracev.CatCompute), cp.Seconds(tracev.CatPacket),
		cp.Seconds(tracev.CatBlocked), cp.Seconds(tracev.CatBarrier),
		cp.Seconds(tracev.CatNetwork), cp.Seconds(tracev.CatUntraced))

	steps := append([]tracev.Step(nil), cp.Steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].DurNs() > steps[j].DurNs() })
	if len(steps) > 8 {
		steps = steps[:8]
	}
	fmt.Fprintln(w, "  longest steps:")
	for _, st := range steps {
		detail := ""
		switch {
		case st.Flow != 0:
			detail = fmt.Sprintf("  ended by %d-byte packet from node %d", st.Bytes, st.FromTrack)
		case st.Wire >= 0:
			detail = fmt.Sprintf("  wire %d", st.Wire)
		}
		fmt.Fprintf(w, "    node %-3d %-9s %9.6fs  [%.6fs, %.6fs]%s\n",
			st.Track, st.Cat, float64(st.DurNs())/1e9,
			float64(st.FromNs)/1e9, float64(st.ToNs)/1e9, detail)
	}
	return nil
}

// reportSM prints the traced shared memory run and replays its trace at
// each line size, or writes the trace to the -dump file instead.
func (cmd *command) reportSM(w io.Writer, c *locusroute.Circuit, res locusroute.Result) error {
	tr := res.RefTrace
	if cmd.dump != "" {
		f, err := os.Create(cmd.dump)
		if err != nil {
			return err
		}
		err = trace.WriteFile(f, tr, res.Procs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d references from %d processes to %s\n", tr.Len(), res.Procs, cmd.dump)
		return nil
	}
	fmt.Fprintf(w, "circuit %s, %d processes, %s distribution\n", c.Name, res.Procs, res.Order)
	fmt.Fprintf(w, "circuit height:   %d\noccupancy factor: %d\n", res.CircuitHeight, res.Occupancy)
	fmt.Fprintf(w, "virtual makespan: %v\n", res.SM.Span)
	fmt.Fprintf(w, "shared refs:      %d reads, %d writes\n\n", res.SM.Reads, res.SM.Writes)
	return cmd.replayTrace(w, tr, res.Procs, cmd.col.Last())
}

// replayFile loads a dumped trace and replays it.
func (cmd *command) replayFile(w io.Writer) error {
	f, err := os.Open(cmd.replay)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, procs, err := trace.ReadFile(f)
	if err != nil {
		return err
	}
	runDoc := cmd.col.Append(obs.Run{Name: cmd.replay, Backend: "cache-replay", Procs: procs})
	fmt.Fprintf(w, "replaying %d references from %d processes (%s)\n", tr.Len(), procs, cmd.replay)
	return cmd.replayTrace(w, tr, procs, runDoc)
}

// replayTrace runs the coherence simulation at each line size — the
// replays are independent and run concurrently, bounded by -par — and
// prints the traffic breakdowns in line-size order. When runDoc is
// non-nil, each infinite-cache replay appends its traffic document to it
// in the same order (the finite-capacity extension is print-only).
func (cmd *command) replayTrace(w io.Writer, tr *trace.Trace, procs int, runDoc *obs.Run) error {
	pool, capLines := cmd.common.Pool(), cmd.cacheLines
	type replay struct {
		text string
		sim  *cache.Simulator // nil for finite-capacity replays
	}
	out, err := par.Gather(cmd.lines, func(_ int, ls int) (replay, error) {
		if capLines > 0 {
			var t cache.Traffic
			var err error
			pool.Run(func() { t, err = cache.ReplayFinite(tr, procs, ls, capLines) })
			if err != nil {
				return replay{}, err
			}
			return replay{text: fmt.Sprintf("line %2dB (cache %d lines): %7.3f MBytes  (fills %.3f, word writes %.3f, writebacks %.3f MB)\n",
				ls, capLines, t.MBytes(), float64(t.FillBytes)/1e6,
				float64(t.WriteWordBytes)/1e6, float64(t.WritebackBytes)/1e6)}, nil
		}
		simr, err := cache.New(procs, ls)
		if err != nil {
			return replay{}, err
		}
		pool.Run(func() {
			for _, ref := range tr.Refs {
				simr.Access(ref)
			}
		})
		t := simr.Traffic()
		return replay{sim: simr, text: fmt.Sprintf("line %2dB: %7.3f MBytes  (fills %.3f, word writes %.3f, writebacks %.3f MB; %d invalidations; %.0f%% write-caused)\n",
			ls, t.MBytes(), float64(t.FillBytes)/1e6, float64(t.WriteWordBytes)/1e6,
			float64(t.WritebackBytes)/1e6, t.Invalidations, simr.AttributedWriteFraction()*100)}, nil
	})
	if err != nil {
		return err
	}
	for _, r := range out {
		if runDoc != nil && r.sim != nil {
			runDoc.Cache = append(runDoc.Cache, r.sim.Doc())
		}
		fmt.Fprint(w, r.text)
	}
	return nil
}
