package mp

import (
	"fmt"
	"slices"
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/msg"
	"locusroute/internal/sim"
	"locusroute/internal/tracev"
)

// runObserved executes a small DES run and returns its config and
// result, which carries the run's node breakdown and network histograms.
func runObserved(t *testing.T, procs int, st Strategy, threshold int, mutate func(*Config)) (Config, Result) {
	t.Helper()
	c := smallCircuit(1)
	cfg := DefaultConfig(st)
	cfg.Procs = procs
	cfg.Router.Iterations = 2
	if mutate != nil {
		mutate(&cfg)
	}
	px, py := geom.SquarestFactors(procs)
	part, err := geom.NewPartition(c.Grid, px, py)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, threshold)
	res, err := Run(c, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res
}

func TestNodeTimeBreakdownSums(t *testing.T) {
	// The four categories must partition each node's simulated life: they
	// sum to the node's total, and the slowest node's total is exactly
	// the run's simulated time (nothing unaccounted at either end).
	cases := []struct {
		name   string
		st     Strategy
		thresh int
		mutate func(*Config)
	}{
		{"sender initiated", SenderInitiated(2, 5), 1000, nil},
		{"receiver blocking", ReceiverInitiated(1, 5, true), 1000, nil},
		{"strict ownership", Strategy{}, assign.ThresholdInfinity,
			func(c *Config) { c.StrictOwnership = true }},
		{"dynamic wires", SenderInitiated(2, 5), 1000,
			func(c *Config) { c.DynamicWires = true }},
		{"hypercube", SenderInitiated(2, 5), 1000,
			func(c *Config) { c.Topology = []int{2, 2} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, res := runObserved(t, 4, tc.st, tc.thresh, tc.mutate)
			times := res.Nodes
			if len(times) != 4 {
				t.Fatalf("NodeTimes returned %d entries, want 4", len(times))
			}
			var maxTotal int64
			for _, nt := range times {
				sum := nt.ComputeNs + nt.PacketNs + nt.BlockedNs + nt.BarrierNs
				if sum != nt.TotalNs {
					t.Errorf("node %d: categories sum to %d, total %d", nt.Node, sum, nt.TotalNs)
				}
				if nt.TotalNs <= 0 {
					t.Errorf("node %d: no simulated time accounted", nt.Node)
				}
				if nt.ComputeNs <= 0 {
					t.Errorf("node %d: no compute time — every node routes wires", nt.Node)
				}
				if nt.TotalNs > maxTotal {
					maxTotal = nt.TotalNs
				}
			}
			if maxTotal != int64(res.Time) {
				t.Errorf("slowest node accounted %d ns, run finished at %d ns — time leaked",
					maxTotal, int64(res.Time))
			}
		})
	}
}

func TestLedgerPartitions(t *testing.T) {
	// The ledger charges each interval since the previous stamp to one
	// category, zero-width intervals included, stamps the trace in
	// lockstep, and its four sums add up to the node's whole life.
	n := &node{id: 3, track: 3, tr: tracev.New(0)}
	k := sim.NewKernel()
	k.Spawn("node3", func(p *sim.Process) {
		n.p = p
		n.wait(10, tracev.CatCompute)
		n.wait(4, tracev.CatPacket)
		n.account(tracev.CatBlocked) // zero-width interval
		n.wait(16, tracev.CatBlocked)
		n.wait(7, tracev.CatBarrier)
		n.wait(3, tracev.CatCompute)
	})
	k.Run()

	ti := n.times()
	if ti.Node != 3 {
		t.Errorf("node = %d, want 3", ti.Node)
	}
	if ti.ComputeNs != 13 || ti.PacketNs != 4 || ti.BlockedNs != 16 || ti.BarrierNs != 7 {
		t.Errorf("breakdown = %+v", ti)
	}
	if got := ti.ComputeNs + ti.PacketNs + ti.BlockedNs + ti.BarrierNs; got != ti.TotalNs || got != 40 {
		t.Errorf("categories sum to %d, total %d, want 40", got, ti.TotalNs)
	}
	type stamp struct {
		at  int64
		cat tracev.Category
	}
	want := []stamp{{10, tracev.CatCompute}, {14, tracev.CatPacket}, {14, tracev.CatBlocked},
		{30, tracev.CatBlocked}, {37, tracev.CatBarrier}, {40, tracev.CatCompute}}
	var got []stamp
	for _, e := range n.tr.Events() {
		if e.Kind == tracev.KindAccount && e.Track == 3 {
			got = append(got, stamp{e.At, tracev.Category(e.Arg)})
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("trace Account stamps = %v, want %v", got, want)
	}
}

func TestBusySplitMatchesNodeTimes(t *testing.T) {
	// Result.RouteTime and MessageTime are the ledgers' compute and
	// packet sums for every protocol variant — strict ownership's task
	// passing included, so its split is neither all routing nor all
	// messages.
	c := circuit.MustGenerate(circuit.BnrELike(1))
	for _, tc := range desCases() {
		for _, procs := range desProcs {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				_, res := runDESCase(t, c, tc, procs)
				var compute, packet int64
				for _, nt := range res.Nodes {
					compute += nt.ComputeNs
					packet += nt.PacketNs
				}
				if compute != int64(res.RouteTime) || packet != int64(res.MessageTime) {
					t.Errorf("nodes charged %d ns compute, %d ns packet; Result says RouteTime %d, MessageTime %d",
						compute, packet, int64(res.RouteTime), int64(res.MessageTime))
				}
				if f := res.MessageFraction(); tc.strict && (f <= 0 || f >= 1) {
					t.Errorf("strict message fraction %v, want strictly between 0 and 1", f)
				}
			})
		}
	}
}

func TestBlockedTimeOnlyWhenBlocking(t *testing.T) {
	// Blocking receiver initiated runs park on outstanding responses
	// (CatBlocked); non-blocking ones only ever park at the barrier.
	blocked := func(res Result) int64 {
		var total int64
		for _, nt := range res.Nodes {
			total += nt.BlockedNs
		}
		return total
	}
	_, resNB := runObserved(t, 4, ReceiverInitiated(1, 5, false), 1000, nil)
	if b := blocked(resNB); b != 0 {
		t.Errorf("non-blocking run accounted %d ns blocked outside the barrier", b)
	}
	_, resBL := runObserved(t, 4, ReceiverInitiated(1, 5, true), 1000, nil)
	if b := blocked(resBL); b == 0 {
		t.Errorf("blocking run accounted no blocked time")
	}
}

func TestObserverRecordsNetworkHistograms(t *testing.T) {
	cfg, res := runObserved(t, 4, SenderInitiated(2, 5), 1000, nil)
	if res.Net.Latency.Count() != res.Net.Packets {
		t.Errorf("latency observations %d != link-crossing packets %d",
			res.Net.Latency.Count(), res.Net.Packets)
	}
	if res.Net.QueueDepth.Count() == 0 {
		t.Errorf("no queue depths observed")
	}
	doc := ObsRun("test", "small", cfg, res)
	if doc.Network == nil || doc.Network.Latency == nil {
		t.Fatalf("ObsRun must carry the latency histogram")
	}
	if doc.Network.Packets != res.Net.Packets {
		t.Errorf("network doc packets %d != result %d", doc.Network.Packets, res.Net.Packets)
	}
	if len(doc.Messages) == 0 {
		t.Errorf("sender initiated run must report per-kind message counts")
	}
}

func TestNoRuntimeSelfSends(t *testing.T) {
	// The mesh now accounts from==to deliveries separately (SelfPackets);
	// no protocol or runtime path should ever send to itself, so the
	// self counters pin at zero across every configuration family.
	cases := []struct {
		name   string
		st     Strategy
		thresh int
		mutate func(*Config)
	}{
		{"sender initiated", SenderInitiated(2, 5), 1000, nil},
		{"receiver blocking", ReceiverInitiated(1, 5, true), 1000, nil},
		{"dynamic wires", SenderInitiated(2, 5), 1000,
			func(c *Config) { c.DynamicWires = true }},
		{"wire-based packets", SenderInitiated(2, 5), 1000,
			func(c *Config) { c.Packets = StructureWireBased }},
		{"whole-region packets", SenderInitiated(2, 5), 1000,
			func(c *Config) { c.Packets = StructureWholeRegion }},
		{"strict ownership", Strategy{}, assign.ThresholdInfinity,
			func(c *Config) { c.StrictOwnership = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, res := runObserved(t, 4, tc.st, tc.thresh, tc.mutate)
			if res.Net.SelfPackets != 0 || res.Net.SelfBytes != 0 {
				t.Errorf("runtime self-sent %d packets / %d bytes — these would have inflated link stats before the split",
					res.Net.SelfPackets, res.Net.SelfBytes)
			}
		})
	}
}

func TestSendRmtWireMarksOnlyOwnedRegion(t *testing.T) {
	// Regression: a SendRmtWire run that strays outside the receiver's
	// region must only mark the in-region part as own-dirty. Marking
	// non-owned cells would make a later SendLocData broadcast push the
	// receiver's (stale) values for cells it does not own as absolute
	// data, corrupting neighbours' views.
	f := newProtoFixture(t, SenderInitiated(2, 1))
	p := f.ps[0]
	p.Structure = StructureWireBased
	own := f.part.Region(0)
	// A horizontal run starting inside region 0 and continuing into the
	// neighbouring region.
	run := geom.Rect{X0: own.X1 - 2, Y0: own.Y0, X1: own.X1 + 2, Y1: own.Y0 + 1}
	if run.Intersect(own).Empty() {
		t.Fatalf("test run %v must overlap own region %v", run, own)
	}
	p.Handle(1, &msg.Message{Kind: msg.KindSendRmtWire, Region: run, Seq: msg.WireFlagRoute})
	if p.ownDirty.Empty() {
		t.Fatalf("the in-region part of the run must become own-dirty")
	}
	if got := p.ownDirty.Intersect(own); got != p.ownDirty {
		t.Errorf("ownDirty %v leaks outside own region %v", p.ownDirty, own)
	}
	// Any broadcast the mark triggers must stay within the own region.
	for _, o := range p.broadcastOwnRegion() {
		if !own.ContainsRect(o.Msg.Region) {
			t.Errorf("SendLocData region %v escapes own region %v", o.Msg.Region, own)
		}
	}
}

func TestSendRmtWireFullyRemoteRunMarksNothing(t *testing.T) {
	// A run entirely outside the receiver's region updates the view but
	// must not create own-dirty state.
	f := newProtoFixture(t, SenderInitiated(2, 1))
	p := f.ps[0]
	p.Structure = StructureWireBased
	remote := f.part.Region(3)
	run := geom.Rect{X0: remote.X0, Y0: remote.Y0, X1: remote.X0 + 3, Y1: remote.Y0 + 1}
	p.Handle(3, &msg.Message{Kind: msg.KindSendRmtWire, Region: run, Seq: msg.WireFlagRoute})
	if !p.ownDirty.Empty() {
		t.Errorf("fully remote run marked ownDirty %v", p.ownDirty)
	}
	if p.view.At(run.X0, run.Y0) != 1 {
		t.Errorf("view must still apply the remote run")
	}
}
