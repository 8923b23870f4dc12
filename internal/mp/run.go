package mp

import (
	"fmt"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/mesh"
	"locusroute/internal/msg"
	"locusroute/internal/obs"
	"locusroute/internal/route"
	"locusroute/internal/sim"
	"locusroute/internal/tracev"
)

// runner holds the state shared by all nodes of one simulated run. The
// discrete-event kernel serialises node execution, so plain fields are
// safe.
type runner struct {
	cfg  Config
	circ *circuit.Circuit
	asn  *assign.Assignment
	part geom.Partition
	net  *mesh.Network

	// truth is the ground-truth cost array: every commit and rip-up by
	// any node lands here immediately, so final quality is measured on
	// the real circuit state, not on any node's (stale) view.
	truth *costarray.CostArray

	lastCost      []int64 // per wire: path cost at its most recent routing
	bytesByKind   map[msg.Kind]int64
	packetsByKind map[msg.Kind]int64
	cells         int64
	finish        []sim.Time

	// paths is every node's record of each wire's most recent routing,
	// indexed like circ.Wires. One slice serves the run: the DES runs one
	// node at a time, a statically assigned wire is only ever touched by
	// its owner, and a dynamically assigned one may be rerouted by a
	// different node each iteration.
	paths []route.Path
	// scratch and owners are shared by every node's Proto (see Proto).
	scratch *route.Scratch
	owners  geom.OwnerTable

	// wireCounter is the shared wire counter node 0 serves dynamic wire
	// assignment from (DynamicWires only).
	wireCounter int
}

// takeWire hands out the next wire of the current iteration, or -1.
func (r *runner) takeWire() int {
	if r.wireCounter >= len(r.circ.Wires) {
		return -1
	}
	wi := r.wireCounter
	r.wireCounter++
	return wi
}

// Run executes the message passing LocusRoute on the simulated mesh and
// reports quality, simulated time and traffic.
func Run(circ *circuit.Circuit, asn *assign.Assignment, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(circ, asn); err != nil {
		return Result{}, err
	}
	px, py := geom.SquarestFactors(cfg.Procs)
	part, err := geom.NewPartition(circ.Grid, px, py)
	if err != nil {
		return Result{}, fmt.Errorf("mp: partitioning: %w", err)
	}

	dims := cfg.Topology
	if len(dims) == 0 {
		dims = []int{px, py}
	}
	size := 1
	for _, d := range dims {
		size *= d
	}
	if size != cfg.Procs {
		return Result{}, fmt.Errorf("mp: topology %v has %d nodes for %d processors",
			dims, size, cfg.Procs)
	}
	kernel := sim.NewKernel()
	net, err := mesh.New(kernel, dims, cfg.Net)
	if err != nil {
		return Result{}, err
	}
	if cfg.Trace != nil {
		kernel.SetTracer(cfg.Trace)
		net.SetTracer(cfg.Trace)
	}
	r := &runner{
		cfg:           cfg,
		circ:          circ,
		asn:           asn,
		part:          part,
		net:           net,
		truth:         costarray.New(circ.Grid),
		lastCost:      make([]int64, len(circ.Wires)),
		bytesByKind:   make(map[msg.Kind]int64),
		packetsByKind: make(map[msg.Kind]int64),
		finish:        make([]sim.Time, cfg.Procs),
		paths:         make([]route.Path, len(circ.Wires)),
		scratch:       route.GetScratch(circ.Grid),
		owners:        part.OwnerTable(),
	}

	nodes := make([]*node, cfg.Procs)
	for id := range nodes {
		nodes[id] = newNode(id, r)
		kernel.Spawn(fmt.Sprintf("node%d", id), nodes[id].run)
	}
	kernel.Run()
	route.PutScratch(r.scratch)

	var res Result
	res.Final = r.truth
	res.CircuitHeight = r.truth.CircuitHeight()
	for _, c := range r.lastCost {
		res.Occupancy += c
	}
	for _, f := range r.finish {
		if f > res.Time {
			res.Time = f
		}
		res.BusyTime += f
	}
	res.Net = net.Stats()
	res.Nodes = make([]obs.NodeTimes, len(nodes))
	for i, n := range nodes {
		res.RouteTime += n.spent[tracev.CatCompute]
		res.MessageTime += n.spent[tracev.CatPacket]
		res.Nodes[i] = n.times()
	}
	res.BytesByKind = r.bytesByKind
	res.PacketsByKind = r.packetsByKind
	res.CellsExamined = r.cells
	// Update traffic excludes the barrier and the dynamic wire
	// distribution: the paper's "MBytes Xfrd." measures consistency
	// traffic.
	res.UpdateBytes = res.Net.Bytes -
		r.bytesByKind[msg.KindDone] - r.bytesByKind[msg.KindContinue] -
		r.bytesByKind[msg.KindReqWire] - r.bytesByKind[msg.KindWireGrant]
	if cfg.Trace != nil {
		// Every node stamps its ledger into the trace, so only a tracer
		// that recorded nothing of this run can fail the analysis.
		if res.CritPath, err = tracev.Analyze(cfg.Trace.Events()); err != nil {
			return Result{}, fmt.Errorf("mp: critical path: %w", err)
		}
	}
	return res, nil
}
