package mp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/msg"
	"locusroute/internal/obs"
	"locusroute/internal/sim"
	"locusroute/internal/tracev"
)

// desCase is one DES configuration family the DES golden and the
// busy-split test run at several processor counts.
type desCase struct {
	name   string
	st     Strategy
	strict bool
	mutate func(*Config)
}

// desCases covers every protocol variant of the DES node: the pure
// sender and receiver initiated schedules, the paper's mixed schedule,
// an alternative packet structure, dynamic wire assignment, a non-mesh
// interconnect and strict region ownership.
func desCases() []desCase {
	return []desCase{
		{name: "SI(1,1)", st: SenderInitiated(1, 1)},
		{name: "SI(2,10)", st: SenderInitiated(2, 10)},
		{name: "RI(1,5)-blocking", st: ReceiverInitiated(1, 5, true)},
		{name: "mixed", st: Strategy{SendLocData: 5, SendRmtData: 2, ReqLocData: 1, ReqRmtData: 5}},
		{name: "whole-region", st: SenderInitiated(2, 10),
			mutate: func(c *Config) { c.Packets = StructureWholeRegion }},
		{name: "dynamic", st: SenderInitiated(2, 10),
			mutate: func(c *Config) { c.DynamicWires = true }},
		{name: "hypercube", st: SenderInitiated(2, 10), mutate: func(c *Config) {
			// A binary n-cube of Procs nodes: [2 2] at 4, [2 2 2 2] at 16.
			c.Topology = nil
			for n := c.Procs; n > 1; n /= 2 {
				c.Topology = append(c.Topology, 2)
			}
		}},
		{name: "strict", strict: true},
	}
}

// desProcs are the processor counts every desCase runs at.
var desProcs = []int{4, 16}

// runDESCase runs one case on the bnrE circuit, traced.
func runDESCase(t testing.TB, c *circuit.Circuit, tc desCase, procs int) (Config, Result) {
	t.Helper()
	cfg := DefaultConfig(tc.st)
	cfg.Procs = procs
	cfg.StrictOwnership = tc.strict
	cfg.Trace = tracev.New(0)
	if tc.mutate != nil {
		tc.mutate(&cfg)
	}
	px, py := geom.SquarestFactors(procs)
	part, err := geom.NewPartition(c.Grid, px, py)
	if err != nil {
		t.Fatal(err)
	}
	threshold := 1000
	if tc.strict {
		threshold = assign.ThresholdInfinity
	}
	res, err := Run(c, assign.AssignThreshold(c, part, threshold), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Dropped() != 0 {
		t.Fatalf("trace ring wrapped (%d dropped)", cfg.Trace.Dropped())
	}
	return cfg, res
}

// desDigest hashes everything a DES run answers: every Result field
// (per-kind traffic in kind order, the final cost array cell by cell),
// every node's time breakdown, and the trace event by event.
//
// Strict runs fold each run of consecutive same-category Account stamps
// on a track into its last stamp, and leave RouteTime and MessageTime
// out: how many stamps tile a stretch of one category, and whether task
// passing counts as message time, are bookkeeping of the runtime, not
// answers of the scheme. Where each category begins and ends, and every
// span, flow and instant, are still pinned.
func desDigest(cfg Config, res Result) string {
	var buf []byte
	put := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	put(res.CircuitHeight, res.Occupancy, int64(res.Time), res.CellsExamined,
		int64(res.BusyTime), res.UpdateBytes)
	put(res.Net.Packets, res.Net.Bytes, res.Net.HopBytes, res.Net.SelfPackets,
		res.Net.SelfBytes, int64(res.Net.ContentionDelay), int64(res.Net.TotalLatency))
	if !cfg.StrictOwnership {
		put(int64(res.RouteTime), int64(res.MessageTime))
	}
	for k := msg.Kind(0); k <= msg.KindSegDone; k++ {
		put(res.BytesByKind[k], res.PacketsByKind[k])
	}
	final := sha256.New()
	for _, v := range res.Final.Cells() {
		final.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
	}
	buf = final.Sum(buf)
	for _, nt := range res.Nodes {
		put(int64(nt.Node), nt.ComputeNs, nt.PacketNs, nt.BlockedNs, nt.BarrierNs, nt.TotalNs)
	}
	events := cfg.Trace.Events()
	folded := make([]bool, len(events))
	if cfg.StrictOwnership {
		lastStamp := map[int32]int{}
		for i, e := range events {
			if e.Kind != tracev.KindAccount {
				continue
			}
			if j, ok := lastStamp[e.Track]; ok && events[j].Arg == e.Arg {
				folded[j] = true
			}
			lastStamp[e.Track] = i
		}
	}
	for i, e := range events {
		if !folded[i] {
			put(e.At, e.Arg, int64(e.Flow), int64(e.Track), int64(e.Type), int64(e.Kind))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])[:16]
}

// TestDESGolden pins the DES runtime's answers across commits, the way
// the paper sha256 pins the rendered tables: a change to how a node is
// structured (which code path handles a packet, how time is charged)
// must hold every digest. Only a change that says which answer moved
// and why re-pins one.
func TestDESGolden(t *testing.T) {
	want := map[string]string{
		"SI(1,1)/procs4":           "ce1ba3929949ee1e",
		"SI(1,1)/procs16":          "8cc29ff5333fa794",
		"SI(2,10)/procs4":          "26281c8f89744318",
		"SI(2,10)/procs16":         "ee49e51d9ba76acb",
		"RI(1,5)-blocking/procs4":  "39f964602ced5ba1",
		"RI(1,5)-blocking/procs16": "936ac8e5663d3d70",
		"mixed/procs4":             "10ab64b3a7a784ff",
		"mixed/procs16":            "5165112c0d3d95a3",
		"whole-region/procs4":      "2aef4af213378218",
		"whole-region/procs16":     "3c6557c59580128b",
		"dynamic/procs4":           "95515d62de6c57a4",
		"dynamic/procs16":          "7fb3159230e2ac54",
		"hypercube/procs4":         "26281c8f89744318",
		"hypercube/procs16":        "b09989338dbcf85f",
		"strict/procs4":            "d6ab24628263a397",
		"strict/procs16":           "6ac011537663e72f",
	}
	c := circuit.MustGenerate(circuit.BnrELike(1))
	for _, tc := range desCases() {
		for _, procs := range desProcs {
			name := fmt.Sprintf("%s/procs%d", tc.name, procs)
			t.Run(name, func(t *testing.T) {
				cfg, res := runDESCase(t, c, tc, procs)
				if got := desDigest(cfg, res); got != want[name] {
					t.Errorf("digest %s, want %s", got, want[name])
				}
			})
		}
	}
}

// TestTimeScaleInvariance multiplies every time constant — the compute
// model's five and the network's hop and process times — by 3 on every
// DES golden configuration. The answers must not move: circuit height,
// occupancy, cells examined and the traffic of every packet kind. Every
// time must be exactly 3 times the unscaled one: the run time, its
// routing and message split, and every node's ledger. A time literal
// that bypasses the model would break the factor.
func TestTimeScaleInvariance(t *testing.T) {
	const k = 3
	c := circuit.MustGenerate(circuit.BnrELike(1))
	for _, tc := range desCases() {
		for _, procs := range desProcs {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				_, res := runDESCase(t, c, tc, procs)
				scaled := tc
				scaled.mutate = func(cfg *Config) {
					if tc.mutate != nil {
						tc.mutate(cfg)
					}
					m, n := &cfg.Perf, &cfg.Net
					for _, v := range []*sim.Time{&m.CellEval, &m.CellWrite, &m.CellScan,
						&m.ByteCopy, &m.WireOverhead, &n.HopTime, &n.ProcessTime} {
						*v *= k
					}
				}
				_, kres := runDESCase(t, c, scaled, procs)

				check := func(what string, got, want int64) {
					if got != want {
						t.Errorf("%s: %d with constants x%d, want %d", what, got, k, want)
					}
				}
				check("circuit height", kres.CircuitHeight, res.CircuitHeight)
				check("occupancy", kres.Occupancy, res.Occupancy)
				check("cells examined", kres.CellsExamined, res.CellsExamined)
				for kind := msg.Kind(0); kind <= msg.KindSegDone; kind++ {
					check(kind.String()+" packets", kres.PacketsByKind[kind], res.PacketsByKind[kind])
					check(kind.String()+" bytes", kres.BytesByKind[kind], res.BytesByKind[kind])
				}
				check("time", int64(kres.Time), k*int64(res.Time))
				check("route time", int64(kres.RouteTime), k*int64(res.RouteTime))
				check("message time", int64(kres.MessageTime), k*int64(res.MessageTime))
				nodes, knodes := res.Nodes, kres.Nodes
				if len(knodes) != len(nodes) {
					t.Fatalf("%d node ledgers with constants x%d, want %d", len(knodes), k, len(nodes))
				}
				for i, n := range nodes {
					want := obs.NodeTimes{Node: n.Node, ComputeNs: k * n.ComputeNs, PacketNs: k * n.PacketNs,
						BlockedNs: k * n.BlockedNs, BarrierNs: k * n.BarrierNs, TotalNs: k * n.TotalNs}
					if knodes[i] != want {
						t.Errorf("node %d ledger %+v with constants x%d, want %+v", n.Node, knodes[i], k, want)
					}
				}
			})
		}
	}
}
