// Package obs is the run observability layer: the stable JSON document
// the commands emit under -json, the Collector that gathers one
// invocation's run documents, and the power-of-two Histogram the
// simulators record into.
//
// A nil *Collector is the disabled state and discards every document.
// What a run records does not depend on it: the DES returns its per-node
// breakdown and network histograms in every Result, and the paper tables
// stay byte-identical with or without -json.
//
// # Document schema (locusroute.obs/v2)
//
// v2 is additive over v1: it introduces optional per-run sections —
// "crit_path" (the simulated-time critical path extracted from an event
// trace) and "partition" (the partitioned backend's tree decomposition
// and boundary-wire load); every v1 field is unchanged, so v1 consumers
// can read v2 documents by ignoring the new sections.
//
// A Snapshot is one JSON object per command invocation:
//
//	{
//	  "schema":  "locusroute.obs/v2",
//	  "command": "paper -all",       // the invocation that produced it
//	  "runs": [ ...one Run per routing execution... ]
//	}
//
// Each Run:
//
//	{
//	  "name":    "SRD=2 SLD=10", // row label within the command
//	  "backend": "mp-des",       // sequential | sm-traced | mp-des |
//	                             // partitioned | cache-replay
//	  "circuit": "bnrE",
//	  "procs":   16,
//	  "quality": {"circuit_height": H, "occupancy": O},
//	  "sim_time_ns": T,          // virtual time of the DES or traced run
//	  "nodes":   [...],          // MP DES: per-node simulated-time breakdown
//	  "network": {...},          // interconnect counters and histograms
//	  "messages": [{"kind": "SendLocData", "packets": P, "bytes": B}, ...],
//	  "cache":   [...],          // SM: coherence bus traffic per line size
//	  "trace":   {"reads": R, "writes": W, "refs": N},
//	  "crit_path": {...},        // MP DES with tracing: critical-path breakdown
//	  "partition": {...}         // partitioned backend: tree + boundary load
//	}
//
// The per-node breakdown (the paper's Section 5.1.3 lens) is exhaustive
// by construction: each DES node keeps one time ledger, which charges
// every nanosecond of the node's simulated life to exactly one of the
// four categories, so
//
//	compute_ns + packet_ns + blocked_ns + barrier_ns == total_ns
//
// and total_ns is the virtual time at which the node finished its last
// iteration. Histograms use power-of-two buckets: each bucket's "le" is
// its inclusive upper bound and the next bucket starts at le+1.
package obs

import (
	"io"
	"sync"
)

// SchemaVersion identifies the JSON document layout.
const SchemaVersion = "locusroute.obs/v2"

// Quality is the (circuit height, occupancy factor) pair every backend
// reports.
type Quality struct {
	CircuitHeight int64 `json:"circuit_height"`
	Occupancy     int64 `json:"occupancy"`
}

// NodeTimes is one node's simulated-time breakdown. The four categories
// partition the node's whole life, so they sum to TotalNs exactly.
type NodeTimes struct {
	Node      int   `json:"node"`
	ComputeNs int64 `json:"compute_ns"` // routing work: rip-up, evaluation, commit
	PacketNs  int64 `json:"packet_ns"`  // packet assembly/disassembly, scans, network copies
	BlockedNs int64 `json:"blocked_ns"` // blocked on receive outside the barrier
	BarrierNs int64 `json:"barrier_ns"` // blocked at the inter-iteration barrier
	TotalNs   int64 `json:"total_ns"`
}

// KindCount is the traffic of one protocol packet kind.
type KindCount struct {
	Kind    string `json:"kind"`
	Packets int64  `json:"packets"`
	Bytes   int64  `json:"bytes"`
}

// NetworkDoc is the interconnect section of a run document.
type NetworkDoc struct {
	Bytes             int64         `json:"bytes"`
	Packets           int64         `json:"packets"`
	HopBytes          int64         `json:"hop_bytes,omitempty"`
	SelfPackets       int64         `json:"self_packets,omitempty"`
	SelfBytes         int64         `json:"self_bytes,omitempty"`
	ContentionDelayNs int64         `json:"contention_delay_ns,omitempty"`
	TotalLatencyNs    int64         `json:"total_latency_ns,omitempty"`
	Latency           *HistogramDoc `json:"latency_ns,omitempty"`
	LinkDelay         *HistogramDoc `json:"link_delay_ns,omitempty"`
	QueueDepth        *HistogramDoc `json:"queue_depth,omitempty"`
}

// CacheDoc is the coherence-simulation traffic at one cache line size.
type CacheDoc struct {
	LineSize       int     `json:"line_size"`
	Refs           int64   `json:"refs"`
	Bytes          int64   `json:"bytes"`
	FillBytes      int64   `json:"fill_bytes"`
	WriteWordBytes int64   `json:"write_word_bytes"`
	WritebackBytes int64   `json:"writeback_bytes"`
	Fills          int64   `json:"fills"`
	WriteWords     int64   `json:"write_words"`
	Writebacks     int64   `json:"writebacks"`
	Invalidations  int64   `json:"invalidations"`
	RefetchBytes   int64   `json:"refetch_bytes,omitempty"`
	WriteFraction  float64 `json:"write_fraction"`
}

// TraceDoc is the shared-reference trace length of a traced run.
type TraceDoc struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Refs   int64 `json:"refs"`
}

// CritPathStep is one interval of a run's simulated-time critical path.
type CritPathStep struct {
	Node     int    `json:"node"`
	Category string `json:"category"`
	FromNs   int64  `json:"from_ns"`
	ToNs     int64  `json:"to_ns"`
	// Wire is the wire being routed during a compute step (-1 otherwise).
	Wire int64 `json:"wire"`
	// FromNode is the sender of the packet that ended a wait step (-1
	// when the step is not a packet hop); Bytes is that packet's size.
	FromNode int   `json:"from_node"`
	Bytes    int64 `json:"bytes,omitempty"`
}

// PartitionDoc describes how the partitioned backend decomposed one run
// (schema v2, additive like crit_path): the realised partition tree, the
// boundary-wire load that limits its concurrency, per-region routing
// wall time, and — when the negotiated-congestion schedule ran — how the
// negotiation went.
type PartitionDoc struct {
	// Partitions is the number of leaf regions realised; Depth is the
	// bisection tree depth (0 = single leaf, the sequential shape).
	Partitions int `json:"partitions"`
	Depth      int `json:"depth"`
	// BoundaryWires counts wires that cross a partition cut and route
	// serially at their tree level; BoundaryFrac is their share of the
	// circuit's wires.
	BoundaryWires int     `json:"boundary_wires"`
	BoundaryFrac  float64 `json:"boundary_frac"`
	// LevelWires[d] is the number of wires classified at tree depth d
	// (the last entry is the concurrent leaf work).
	LevelWires []int `json:"level_wires,omitempty"`
	// RegionWallNs is the wall-clock routing time of each leaf region in
	// left-to-right order, summed over iterations.
	RegionWallNs []int64 `json:"region_wall_ns,omitempty"`
	// NegotiatedIters, OverusedCells and PresFacFinal describe the
	// negotiated-congestion schedule when it was enabled: passes
	// consumed, overused cells remaining at exit (0 = converged), and
	// the final pres_fac.
	NegotiatedIters int     `json:"negotiated_iters,omitempty"`
	OverusedCells   int     `json:"overused_cells,omitempty"`
	PresFacFinal    float64 `json:"pres_fac_final,omitempty"`
}

// CritPathDoc is the critical path extracted from a run's event trace
// (schema v2). The six category sums partition TotalNs exactly, the same
// way a NodeTimes entry partitions one node's life — but here the
// nanoseconds are only those on the chain of dependent events that set
// the run's simulated time.
type CritPathDoc struct {
	TotalNs    int64 `json:"total_ns"`
	ComputeNs  int64 `json:"compute_ns"`
	PacketNs   int64 `json:"packet_ns"`
	BlockedNs  int64 `json:"blocked_ns"`
	BarrierNs  int64 `json:"barrier_ns"`
	NetworkNs  int64 `json:"network_ns"`
	UntracedNs int64 `json:"untraced_ns"`
	// Hops counts the cross-node jumps (waits ended by another node's
	// packet); EndNode is the last-finishing node the walk started from.
	Hops    int `json:"hops"`
	EndNode int `json:"end_node"`
	// Steps is the full chain in forward time order.
	Steps []CritPathStep `json:"steps,omitempty"`
}

// Run is the observability document of one routing execution.
type Run struct {
	Name      string        `json:"name"`
	Backend   string        `json:"backend"`
	Circuit   string        `json:"circuit,omitempty"`
	Procs     int           `json:"procs,omitempty"`
	Quality   *Quality      `json:"quality,omitempty"`
	SimTimeNs int64         `json:"sim_time_ns,omitempty"`
	Nodes     []NodeTimes   `json:"nodes,omitempty"`
	Network   *NetworkDoc   `json:"network,omitempty"`
	Messages  []KindCount   `json:"messages,omitempty"`
	Cache     []CacheDoc    `json:"cache,omitempty"`
	Trace     *TraceDoc     `json:"trace,omitempty"`
	CritPath  *CritPathDoc  `json:"crit_path,omitempty"`
	Partition *PartitionDoc `json:"partition,omitempty"`
}

// Snapshot is the complete document of one command invocation.
type Snapshot struct {
	Schema  string `json:"schema"`
	Command string `json:"command,omitempty"`
	Runs    []Run  `json:"runs"`
}

// WriteJSON writes the snapshot as indented JSON with a trailing
// newline. Field order follows the struct definitions, so the output is
// stable across runs of the same configuration.
func (s Snapshot) WriteJSON(w io.Writer) error { return writeJSON(w, s) }

// Collector accumulates run documents across an invocation. A nil
// Collector is the disabled state: Enabled reports false and Append
// discards.
type Collector struct {
	mu   sync.Mutex
	runs []*Run
}

// NewCollector returns an empty, enabled collector.
func NewCollector() *Collector { return &Collector{} }

// Enabled reports whether run documents should be produced at all.
func (c *Collector) Enabled() bool { return c != nil }

// Append stores a run document and returns a pointer to the stored
// copy, so callers can attach late sections (e.g. cache replays that
// happen after the routing run). Returns nil on a nil collector.
func (c *Collector) Append(r Run) *Run {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	stored := &r
	c.runs = append(c.runs, stored)
	return stored
}

// Last returns the most recently appended run document, so callers that
// route through an API which appends the document internally (the
// pkg/locusroute backends) can still attach late sections. Returns nil
// on a nil or empty collector.
func (c *Collector) Last() *Run {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.runs) == 0 {
		return nil
	}
	return c.runs[len(c.runs)-1]
}

// Take returns the collector's stored run documents in append order and
// leaves the collector empty. The parallel experiment driver runs each
// independent cell against a private forked collector, then Takes the
// fork and Adopts its documents into the invocation's collector in
// submission order — never completion order — so a -json document is
// byte-identical at every worker count. Returns nil on a nil collector.
func (c *Collector) Take() []*Run {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	runs := c.runs
	c.runs = nil
	return runs
}

// Adopt appends already-assembled run documents, preserving pointer
// identity so sections attached late through Append's returned pointer
// (e.g. cache replays) stay visible. A nil collector discards.
func (c *Collector) Adopt(runs []*Run) {
	if c == nil || len(runs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs = append(c.runs, runs...)
}

// Snapshot assembles the document for the whole invocation.
func (c *Collector) Snapshot(command string) Snapshot {
	s := Snapshot{Schema: SchemaVersion, Command: command, Runs: []Run{}}
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.runs {
		s.Runs = append(s.Runs, *r)
	}
	return s
}
