package locusroute

import (
	"fmt"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/mp"
	"locusroute/internal/obs"
	"locusroute/internal/part"
	"locusroute/internal/route"
	"locusroute/internal/tracev"
)

// assignMethod selects how wires are distributed across processors.
type assignMethod int

const (
	// assignDefault lets each backend pick its paper baseline: the
	// dynamic distributed loop for shared memory, the standard
	// ThresholdCost (assign.ThresholdStandard) for message passing.
	assignDefault assignMethod = iota
	assignDynamic
	assignRoundRobin
	assignThreshold
)

// config accumulates the functional options; each constructor validates
// it against what its backend supports.
type config struct {
	procs      int
	procsSet   bool
	iterations int

	method    assignMethod
	threshold int

	strategy    *Strategy
	packets     mp.PacketStructure
	packetsSet  bool
	dynamic     bool
	strict      bool
	blockingSet bool

	partitions    int
	partitionsSet bool
	negotiated    *part.Negotiated

	collector *obs.Collector
	tracer    *tracev.Tracer
}

func defaultConfig() config {
	return config{procs: 16, threshold: assign.ThresholdStandard}
}

// Option configures a backend at construction time.
type Option func(*config)

// WithProcs sets the processor count (logical processes, simulated mesh
// nodes or the partitioned backend's worker bound). Backends default to the paper's 16;
// the sequential backend is always 1 and rejects any other value.
func WithProcs(n int) Option {
	return func(c *config) { c.procs = n; c.procsSet = true }
}

// WithIterations sets the rip-up-and-reroute iteration count (default
// route.DefaultParams's 3, the paper's). Every other router parameter
// is route.DefaultParams's.
func WithIterations(n int) Option {
	return func(c *config) { c.iterations = n }
}

// WithDynamicOrder selects the shared memory distributed loop: processes
// repeatedly take the next wire from a shared counter (the paper's
// baseline, and the default). Shared memory backends only.
func WithDynamicOrder() Option {
	return func(c *config) { c.method = assignDynamic }
}

// WithRoundRobin distributes wires round-robin across processors,
// ignoring locality (the paper's load-balance-only extreme).
func WithRoundRobin() Option {
	return func(c *config) { c.method = assignRoundRobin }
}

// WithThreshold assigns wires cheaper than cost to the owner of their
// leftmost pin and longer wires by load balance (Section 4.2; the
// paper's compromise, cost 1000, is the message passing default). A
// negative cost is infinity: pure locality, every wire to the owner of
// its leftmost pin — minimal traffic, worst load balance.
func WithThreshold(cost int) Option {
	return func(c *config) { c.method = assignThreshold; c.threshold = cost }
}

// WithStrategy sets the message passing update schedule. Message passing
// backends only; the default is the paper's standard sender initiated
// schedule, SenderInitiated(2, 10).
func WithStrategy(st Strategy) Option {
	return func(c *config) { c.strategy = &st }
}

// WithBlocking makes receiver initiated requests blocking (Section
// 5.1.3). It adjusts the configured strategy, so it composes with
// WithStrategy in either order.
func WithBlocking() Option {
	return func(c *config) { c.blockingSet = true }
}

// PacketStructure aliases the update packet structure ablation
// (Section 4.3.1).
type PacketStructure = mp.PacketStructure

// Packet structure values for WithPackets.
const (
	PacketsBbox        = mp.StructureBbox
	PacketsWireBased   = mp.StructureWireBased
	PacketsWholeRegion = mp.StructureWholeRegion
)

// WithPackets selects the update packet structure (default bounding
// box, the paper's choice). Message passing backends only.
func WithPackets(ps PacketStructure) Option {
	return func(c *config) { c.packets = ps; c.packetsSet = true }
}

// WithDynamicWires enables the dynamic wire assignment ablation
// (Section 4.2): processors request wires from node 0 over the network.
// Message passing DES backend only.
func WithDynamicWires() Option {
	return func(c *config) { c.dynamic = true }
}

// WithStrictOwnership enables the strict region ownership ablation
// (Section 4.1): no replicated views, routing tasks cross region
// boundaries instead of update packets. Forces the pure-locality
// assignment, WithThreshold(-1). Message passing DES backend only.
func WithStrictOwnership() Option {
	return func(c *config) { c.strict = true; c.method = assignThreshold; c.threshold = -1 }
}

// WithPartitions sets the partitioned backend's leaf-region count:
// recursive bisection splits the grid into n regions routed
// concurrently. 1 reproduces the sequential backend bit-for-bit; the
// default is part.DefaultPartitions (4), a machine-independent constant
// so the routing stays a pure function of its inputs. Partitioned
// backend only.
func WithPartitions(n int) Option {
	return func(c *config) { c.partitions = n; c.partitionsSet = true }
}

// WithNegotiatedCongestion switches routing to the PathFinder/VPR-style
// negotiated-congestion schedule: a first pass routes by length, later
// passes escalate a present-congestion factor, charge history to cells
// that stay overused, and rip up only the wires crossing them. Applies
// to the sequential and partitioned backends; it is orthogonal to
// partitioning. The schedule runs with part.Negotiated's defaults.
func WithNegotiatedCongestion() Option {
	return func(c *config) { c.negotiated = &part.Negotiated{} }
}

// WithObserver attaches a collector: every Route appends its run's
// observability document (quality, per-node times, traffic, phases) to
// col. The run itself is byte-identical with or without an observer.
func WithObserver(col *obs.Collector) Option {
	return func(c *config) { c.collector = col }
}

// WithTracer attaches an event-level recorder to the message passing
// DES backend. A tracer is confined to one run — a backend constructed
// with one must not Route concurrently.
func WithTracer(tr *tracev.Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// apply folds the options over the default configuration.
func apply(opts []Option) config {
	c := defaultConfig()
	for _, o := range opts {
		o(&c)
	}
	return c
}

// optionRule is one row of the kind×option validation table: a
// construction option (or option family), the predicate that detects
// it was supplied, and the backend kinds that accept it. reject walks
// the table, so which option works on which backend is declared in
// exactly one place — adding an option or a backend means editing a
// row, never a constructor.
type optionRule struct {
	// option names the rejected option in the error message.
	option string
	// set reports whether the caller supplied the option.
	set func(*config) bool
	// kinds lists the backends that accept the option.
	kinds []Kind
	// note, when non-empty, replaces the generic guidance with a more
	// specific pointer.
	note string
}

func (r *optionRule) accepts(kind Kind) bool {
	for _, k := range r.kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// kindList renders the accepting kinds for an error message:
// "the mp-des backend", "the sequential and partitioned backends".
func kindList(kinds []Kind) string {
	if len(kinds) == 1 {
		return fmt.Sprintf("the %s backend", kinds[0])
	}
	s := "the "
	for i, k := range kinds {
		switch {
		case i == len(kinds)-1:
			s += fmt.Sprintf("and %s backends", k)
		case i > 0:
			s += fmt.Sprintf("%s, ", k)
		default:
			s += fmt.Sprintf("%s ", k)
		}
	}
	return s
}

// optionRules is the single source of truth for which construction
// option applies to which backend kind. Value-range validation (a
// supplied value being out of range for a backend that accepts the
// option) stays in reject below.
var optionRules = []optionRule{
	{option: "WithStrategy", set: func(c *config) bool { return c.strategy != nil },
		kinds: []Kind{MPDES}},
	{option: "WithBlocking", set: func(c *config) bool { return c.blockingSet },
		kinds: []Kind{MPDES}},
	{option: "WithPackets", set: func(c *config) bool { return c.packetsSet },
		kinds: []Kind{MPDES}},
	{option: "WithDynamicWires", set: func(c *config) bool { return c.dynamic },
		kinds: []Kind{MPDES}},
	{option: "WithStrictOwnership", set: func(c *config) bool { return c.strict },
		kinds: []Kind{MPDES}},
	{option: "WithTracer", set: func(c *config) bool { return c.tracer != nil },
		kinds: []Kind{MPDES}},
	// Any explicit wire distribution: the sequential backend routes
	// every wire itself and the partitioned backend distributes by
	// footprint, so neither takes an assignment method.
	{option: "wire distribution (WithDynamicOrder/WithRoundRobin/WithThreshold)",
		set:   func(c *config) bool { return c.method != assignDefault },
		kinds: []Kind{SMTraced, MPDES}},
	// The dynamic distributed loop specifically is shared memory only.
	{option: "WithDynamicOrder", set: func(c *config) bool { return c.method == assignDynamic },
		kinds: []Kind{SMTraced},
		note:  "it is the shared memory distributed loop; message passing uses WithDynamicWires"},
	{option: "WithProcs", set: func(c *config) bool { return c.procsSet && c.procs != 1 },
		kinds: []Kind{SMTraced, MPDES, Partitioned},
		note:  "the sequential backend routes on one processor"},
	{option: "WithPartitions", set: func(c *config) bool { return c.partitionsSet },
		kinds: []Kind{Partitioned}},
	{option: "WithNegotiatedCongestion", set: func(c *config) bool { return c.negotiated != nil },
		kinds: []Kind{Sequential, Partitioned}},
}

// reject returns an error when an option inapplicable to kind was set
// (driven by optionRules) or when a supplied value is out of range.
func (c *config) reject(kind Kind) error {
	for i := range optionRules {
		r := &optionRules[i]
		if !r.set(c) || r.accepts(kind) {
			continue
		}
		if r.note != "" {
			return fmt.Errorf("locusroute: %s applies to %s, not %s: %s",
				r.option, kindList(r.kinds), kind, r.note)
		}
		return fmt.Errorf("locusroute: %s applies to %s, not %s", r.option, kindList(r.kinds), kind)
	}
	if c.partitionsSet && c.partitions < 1 {
		return fmt.Errorf("locusroute: partition count %d must be positive", c.partitions)
	}
	if kind != Sequential && c.procs < 1 {
		return fmt.Errorf("locusroute: processor count %d must be positive", c.procs)
	}
	return nil
}

// params returns route.DefaultParams with WithIterations applied.
func (c *config) params() route.Params {
	p := route.DefaultParams()
	if c.iterations > 0 {
		p.Iterations = c.iterations
	}
	return p
}

// assignment builds the wire distribution for circ on a procs-processor
// partition and reports its locality measure and load imbalance on out.
// Used by the message passing backend (always) and the shared memory
// backend (static orders only).
func (c *config) assignment(circ *circuit.Circuit, procs int, out *Result) (*assign.Assignment, error) {
	px, py := geom.SquarestFactors(procs)
	part, err := geom.NewPartition(circ.Grid, px, py)
	if err != nil {
		return nil, err
	}
	var asn *assign.Assignment
	if c.method == assignRoundRobin {
		asn = assign.AssignRoundRobin(circ, part)
	} else {
		th := c.threshold
		if th < 0 {
			th = assign.ThresholdInfinity
		}
		asn = assign.AssignThreshold(circ, part, th)
	}
	out.Locality = assign.LocalityMeasure(circ, part, asn)
	out.Imbalance = asn.Imbalance()
	return asn, nil
}
