package mp

import (
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/geom"
	"locusroute/internal/msg"
)

func runAblation(t *testing.T, mutate func(*Config)) Result {
	t.Helper()
	c := smallCircuit(1)
	cfg := DefaultConfig(SenderInitiated(2, 10))
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	mutate(&cfg)
	part, err := geom.NewPartition(c.Grid, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, 1000)
	res, err := Run(c, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPacketStructureWholeRegionCostsMore(t *testing.T) {
	bbox := runAblation(t, func(cfg *Config) { cfg.Packets = StructureBbox })
	whole := runAblation(t, func(cfg *Config) { cfg.Packets = StructureWholeRegion })
	// The paper: the whole-region structure "uses a large number of
	// bytes" compared to the bounding box of changes.
	if whole.UpdateBytes <= bbox.UpdateBytes {
		t.Errorf("whole-region traffic %d must exceed bbox traffic %d",
			whole.UpdateBytes, bbox.UpdateBytes)
	}
	// Quality is unaffected: both deliver the same information.
	lo, hi := bbox.CircuitHeight-3, bbox.CircuitHeight+3
	if whole.CircuitHeight < lo || whole.CircuitHeight > hi {
		t.Errorf("whole-region quality %d far from bbox quality %d",
			whole.CircuitHeight, bbox.CircuitHeight)
	}
}

func TestPacketStructureWireBasedLosesCancellation(t *testing.T) {
	bbox := runAblation(t, func(cfg *Config) { cfg.Packets = StructureBbox })
	wires := runAblation(t, func(cfg *Config) { cfg.Packets = StructureWireBased })
	if wires.PacketsByKind[msg.KindSendRmtWire] == 0 {
		t.Fatalf("wire-based run produced no wire packets")
	}
	if wires.PacketsByKind[msg.KindSendRmtData] != 0 {
		t.Errorf("wire-based run must not produce bbox delta packets")
	}
	// Wire-based sends every rip-up and reroute separately: far more
	// packets than the cancelling bbox structure.
	if wires.Net.Packets <= bbox.Net.Packets {
		t.Errorf("wire-based packets %d must exceed bbox packets %d",
			wires.Net.Packets, bbox.Net.Packets)
	}
	if wires.CircuitHeight <= 0 {
		t.Errorf("wire-based run must still complete")
	}
}

func TestPacketStructureValidation(t *testing.T) {
	c := smallCircuit(1)
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	asn := assign.AssignRoundRobin(c, part)
	cfg := DefaultConfig(ReceiverInitiated(1, 5, false))
	cfg.Procs = 4
	cfg.Packets = StructureWireBased
	if _, err := Run(c, asn, cfg); err == nil {
		t.Errorf("non-bbox structures must reject receiver initiated schedules")
	}
}

func TestDynamicWiresCompletes(t *testing.T) {
	res := runAblation(t, func(cfg *Config) { cfg.DynamicWires = true })
	if res.CircuitHeight <= 0 {
		t.Fatalf("dynamic run did not complete: %+v", res)
	}
	if res.PacketsByKind[msg.KindReqWire] == 0 || res.PacketsByKind[msg.KindWireGrant] == 0 {
		t.Errorf("dynamic run must move wire distribution packets: %v", res.PacketsByKind)
	}
	// Every request is answered.
	if res.PacketsByKind[msg.KindReqWire] != res.PacketsByKind[msg.KindWireGrant] {
		t.Errorf("requests %d != grants %d",
			res.PacketsByKind[msg.KindReqWire], res.PacketsByKind[msg.KindWireGrant])
	}
}

func TestDynamicWiresTradeoffs(t *testing.T) {
	static := runAblation(t, func(cfg *Config) {})
	dynamic := runAblation(t, func(cfg *Config) { cfg.DynamicWires = true })
	// Dynamic distribution abandons locality (and a wire may be ripped
	// up by a processor that never saw it routed), so quality must not
	// beat the locality-assigned static run.
	if dynamic.CircuitHeight < static.CircuitHeight-2 {
		t.Errorf("dynamic quality %d should not beat static %d",
			dynamic.CircuitHeight, static.CircuitHeight)
	}
	// The distribution itself costs network traffic the static scheme
	// does not pay.
	reqBytes := dynamic.BytesByKind[msg.KindReqWire] + dynamic.BytesByKind[msg.KindWireGrant]
	if reqBytes == 0 {
		t.Errorf("dynamic distribution must pay request/grant traffic")
	}
}

func TestDynamicWiresRoutesEveryWire(t *testing.T) {
	res := runAblation(t, func(cfg *Config) { cfg.DynamicWires = true })
	// 60 wires x 2 iterations; every wire's occupancy slot must be set.
	if res.Occupancy <= 0 {
		t.Errorf("occupancy = %d", res.Occupancy)
	}
}

func TestDynamicWiresRejectsReceiverInitiated(t *testing.T) {
	c := smallCircuit(1)
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	asn := assign.AssignRoundRobin(c, part)
	cfg := DefaultConfig(ReceiverInitiated(1, 5, false))
	cfg.Procs = 4
	cfg.DynamicWires = true
	if _, err := Run(c, asn, cfg); err == nil {
		t.Errorf("dynamic assignment cannot support lookahead requests")
	}
}

func TestTopologyHypercube(t *testing.T) {
	// A topology whose node count is not the processor count must fail.
	c := smallCircuit(1)
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	asn := assign.AssignThreshold(c, part, 1000)
	for _, dims := range [][]int{{3, 3}, {2, 2, 2}} {
		cfg := DefaultConfig(SenderInitiated(2, 10))
		cfg.Procs = 4
		cfg.Topology = dims
		if _, err := Run(c, asn, cfg); err == nil {
			t.Errorf("topology %v for 4 processors must fail", dims)
		}
	}
}
