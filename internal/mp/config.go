// Package mp implements the message passing version of LocusRoute
// (Section 4 of the paper) on the simulated mesh: the cost array is
// divided into owned regions, every processor keeps a full (possibly
// stale) view plus a delta array, and consistency is maintained only
// through explicit update packets.
//
// Update strategies follow the paper's taxonomy (Figure 3):
//
//   - sender initiated: SendLocData broadcasts the owner's absolute view
//     of its region to its mesh neighbours every SendLocData wires;
//     SendRmtData forwards accumulated deltas to the owning processor
//     every SendRmtData wires.
//   - receiver initiated: ReqRmtData asks a region's owner for fresh
//     absolute data when the processor's upcoming wires have touched the
//     region often enough, requested RequestAhead wires in advance;
//     ReqLocData is sent by an owner to a remote processor that has been
//     requesting (and therefore routing) in the owner's region a lot,
//     pulling that processor's deltas home.
//   - receiver initiated requests are either non-blocking (the processor
//     keeps routing and applies the response whenever it arrives) or
//     blocking (it waits for all outstanding responses before routing).
//
// Mixed schedules simply enable several mechanisms at once.
package mp

import (
	"fmt"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/mesh"
	"locusroute/internal/msg"
	"locusroute/internal/obs"
	"locusroute/internal/perf"
	"locusroute/internal/route"
	"locusroute/internal/sim"
	"locusroute/internal/tracev"
)

// Strategy selects which update mechanisms run and how often. A zero
// value for a field disables that mechanism. At least one mechanism
// should be enabled for multi-processor runs or views never synchronise.
type Strategy struct {
	// SendLocData: wires routed between absolute-view broadcasts to the
	// mesh neighbours (paper Table 1 column "SendLocData").
	SendLocData int
	// SendRmtData: wires routed between delta pushes to remote owners
	// (paper Table 1 column "SendRmtData").
	SendRmtData int
	// ReqRmtData: number of upcoming-wire touches of a region that
	// trigger a request to its owner (paper Table 2).
	ReqRmtData int
	// ReqLocData: number of ReqRmtData packets received from one remote
	// processor that trigger pulling that processor's deltas home.
	ReqLocData int
	// Blocking makes a processor wait for all outstanding ReqRmtData
	// responses before routing its next wire (Section 4.3.3 / 5.1.3).
	Blocking bool
}

// SenderInitiated returns the pure sender initiated schedule of Table 1.
func SenderInitiated(sendRmt, sendLoc int) Strategy {
	return Strategy{SendLocData: sendLoc, SendRmtData: sendRmt}
}

// StandardStrategy is the paper's standard schedule, SendRmtData = 2 and
// SendLocData = 10: the sender initiated row Tables 4 and 6 share with
// Table 1, and the message passing default everywhere.
func StandardStrategy() Strategy { return SenderInitiated(2, 10) }

// ReceiverInitiated returns the pure receiver initiated schedule of
// Table 2 (non-blocking) or the blocking variant of Section 5.1.3.
func ReceiverInitiated(reqLoc, reqRmt int, blocking bool) Strategy {
	return Strategy{ReqLocData: reqLoc, ReqRmtData: reqRmt, Blocking: blocking}
}

// String renders the schedule compactly for table rows.
func (s Strategy) String() string {
	out := fmt.Sprintf("SLD=%d SRD=%d RLD=%d RRD=%d", s.SendLocData, s.SendRmtData, s.ReqLocData, s.ReqRmtData)
	if s.Blocking {
		out += " blocking"
	}
	return out
}

// DefaultRequestAhead is how many wires in advance update requests are
// ordered (the paper's compromise: five wires at a time).
const DefaultRequestAhead = 5

// Config assembles a full message passing run.
type Config struct {
	// Procs is the processor count; the interconnect is the squarest
	// px x py mesh (16 -> 4x4 as in the paper) unless Topology names
	// another shape.
	Procs int
	// Router parameters (iterations, candidate bounds).
	Router route.Params
	// Strategy is the update schedule.
	Strategy Strategy
	// RequestAhead is the receiver initiated lookahead in wires
	// (default DefaultRequestAhead).
	RequestAhead int
	// Perf is the node compute-cost model (default perf.Default).
	Perf perf.Model
	// Net holds the network timing constants (default mesh.DefaultParams).
	Net mesh.Params
	// Packets selects the update packet structure (Section 4.3.1); the
	// default StructureBbox is the paper's choice, the alternatives are
	// ablations valid only for pure sender initiated schedules.
	Packets PacketStructure
	// DynamicWires enables the dynamic wire assignment ablation
	// (Section 4.2): instead of a static assignment, processors request
	// wires from the assignment processor (node 0) over the network.
	// Sender initiated schedules only (receiver initiated lookahead
	// needs the wire list in advance).
	DynamicWires bool
	// Topology is the interconnect's k-ary n-cube shape, one node count
	// per dimension (e.g. [2, 2, 2, 2] runs 16 processors on a binary
	// hypercube); nil is the squarest [px, py] mesh. The product of the
	// dimensions must equal Procs. The cost array partition stays
	// two-dimensional; only the interconnect shape changes, as in CBS.
	Topology []int
	// Trace, when non-nil, records an event-level timeline of the run:
	// spans for wire routing, packet sends/handling, blocking waits and
	// barriers; flow arrows joining each packet's injection to its
	// dequeue; and Account stamps tiling each node's simulated time.
	// Consumers export it as Chrome trace-event JSON (tracev.WriteChrome)
	// or extract the simulated-time critical path (tracev.Analyze). A
	// tracer is confined to one run — never share one
	// across concurrent simulations. Nil (the default) disables tracing;
	// the run is byte-identical either way.
	Trace *tracev.Tracer
	// StrictOwnership enables the strict region ownership ablation
	// (Section 4.1): no replicated views, no update traffic — routing
	// tasks are passed across region boundaries instead. The update
	// Strategy must be zero (there is nothing to
	// update), and the assignment must be the pure-locality one
	// (leftmost pin) because tasks start at the initiating region.
	StrictOwnership bool
}

// DefaultConfig returns the 16-processor configuration used by most paper
// experiments, with the given update strategy.
func DefaultConfig(strategy Strategy) Config {
	return Config{
		Procs:        16,
		Router:       route.DefaultParams(),
		Strategy:     strategy,
		RequestAhead: DefaultRequestAhead,
		Perf:         perf.Default(),
		Net:          mesh.DefaultParams(),
	}
}

func (c Config) withDefaults() Config {
	if c.RequestAhead <= 0 {
		c.RequestAhead = DefaultRequestAhead
	}
	if c.Perf == (perf.Model{}) {
		c.Perf = perf.Default()
	}
	if c.Net == (mesh.Params{}) {
		c.Net = mesh.DefaultParams()
	}
	return c
}

// Validate checks the configuration against a circuit and assignment.
func (c Config) Validate(circ *circuit.Circuit, asn *assign.Assignment) error {
	if c.Procs <= 0 {
		return fmt.Errorf("mp: processor count %d must be positive", c.Procs)
	}
	if asn.NumProcs != c.Procs {
		return fmt.Errorf("mp: assignment built for %d processors, config has %d",
			asn.NumProcs, c.Procs)
	}
	if err := asn.Validate(circ); err != nil {
		return err
	}
	if c.Packets != StructureBbox && (c.Strategy.ReqRmtData > 0 || c.Strategy.ReqLocData > 0) {
		return fmt.Errorf("mp: packet structure %v requires a pure sender initiated schedule", c.Packets)
	}
	if c.DynamicWires && c.Strategy.ReqRmtData > 0 {
		return fmt.Errorf("mp: dynamic wire assignment cannot look ahead for ReqRmtData")
	}
	if len(circ.Wires) >= int(msg.WireGrantDone) {
		return fmt.Errorf("mp: circuit has %d wires, grant encoding caps at %d",
			len(circ.Wires), msg.WireGrantDone-1)
	}
	if c.StrictOwnership {
		if c.Strategy != (Strategy{}) {
			return fmt.Errorf("mp: strict ownership has no replicated views to update; strategy must be zero")
		}
		if c.DynamicWires {
			return fmt.Errorf("mp: strict ownership assigns wires by region, not dynamically")
		}
		if c.Procs > 16 || len(circ.Wires) >= 1<<12 {
			return fmt.Errorf("mp: strict ownership task encoding caps at 16 processors and 4095 wires")
		}
	}
	return nil
}

// Result reports a message passing run in the units of the paper's
// tables.
type Result struct {
	// CircuitHeight and Occupancy are the quality measures (Section 3);
	// lower is better. CircuitHeight is measured on the ground-truth
	// array after the final barrier; Occupancy sums path costs as each
	// node saw them when routing (the paper's definition).
	CircuitHeight int64
	Occupancy     int64
	// Time is the simulated execution time: when the last processor
	// finished its final iteration.
	Time sim.Time
	// Net aggregates network statistics, including total bytes (the
	// "MBytes Xfrd." column) and the packet latency, link delay and
	// receive-queue depth histograms.
	Net mesh.Stats
	// BytesByKind and PacketsByKind break traffic down by packet type.
	BytesByKind   map[msg.Kind]int64
	PacketsByKind map[msg.Kind]int64
	// CellsExamined is total route-evaluation work across processors.
	CellsExamined int64
	// BusyTime is the summed per-processor busy time (compute and
	// message handling), used for utilisation and overhead analysis.
	BusyTime sim.Time
	// RouteTime and MessageTime break the processors' busy time into
	// wire routing work and update machinery (packet assembly,
	// disassembly, scans, application, network copies). The paper
	// observes message handling reaching about a quarter of processing
	// time under the most frequent update schedules. Both are the
	// nodes' compute and packet ledgers summed, the same charges the
	// per-node breakdown reports; under strict ownership, passing tasks
	// and segment completions between regions counts as message time.
	RouteTime   sim.Time
	MessageTime sim.Time
	// UpdateBytes is Net.Bytes minus barrier traffic: the consistency
	// traffic the paper's tables report.
	UpdateBytes int64
	// Final is the ground-truth cost array after the last barrier — the
	// routed congestion state the quality measures were taken from.
	// Service layers seed incremental serving arrays from it.
	Final *costarray.CostArray
	// Nodes is every node's simulated-time breakdown (the paper's
	// Section 5.1.3 lens), in node order, rendered from each node's
	// time ledger: its four categories sum to the node's whole life.
	Nodes []obs.NodeTimes
}

// MBytes returns the consistency traffic in megabytes, as the tables
// report.
func (r Result) MBytes() float64 { return float64(r.UpdateBytes) / 1e6 }

// MessageFraction returns the share of busy time spent on the update
// machinery rather than routing.
func (r Result) MessageFraction() float64 {
	total := r.RouteTime + r.MessageTime
	if total == 0 {
		return 0
	}
	return float64(r.MessageTime) / float64(total)
}
