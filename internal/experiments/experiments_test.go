package experiments

import (
	"strings"
	"testing"

	"locusroute/internal/circuit"
)

// smallSetup keeps unit-test experiment runs quick; the full-scale paper
// tables run in the benchmarks and cmd/paper.
func smallSetup() Setup {
	return Setup{Procs: 4, Iterations: 2, Threshold: 1000}
}

func smallCircuit() *circuit.Circuit {
	return circuit.MustGenerate(circuit.GenParams{
		Name: "small", Channels: 8, Grids: 96, Wires: 90, MeanSpan: 12,
		LongFrac: 0.1, Seed: 5,
	})
}

// must unwraps a driver result, failing the test on error. Curried so a
// multi-value driver call can feed it directly: must(Table1(c, s))(t).
func must[R any](rows []R, err error) func(testing.TB) []R {
	return func(tb testing.TB) []R {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return rows
	}
}

func TestTable1ShapeSmall(t *testing.T) {
	rows := must(Table1(smallCircuit(), smallSetup()))(t)
	if len(rows) != 12 {
		t.Fatalf("Table 1 must have 12 rows, got %d", len(rows))
	}
	// Within each SendRmtData group, traffic decreases as SendLocData
	// updates become rarer (1 -> 20 wires between updates).
	for g := 0; g < 3; g++ {
		first, last := rows[g*4], rows[g*4+3]
		if first.MBytes <= last.MBytes {
			t.Errorf("group %d: SLD=1 traffic %.3f must exceed SLD=20 traffic %.3f",
				g, first.MBytes, last.MBytes)
		}
		if first.Seconds < last.Seconds {
			t.Errorf("group %d: frequent updates should not be faster (%.3f vs %.3f)",
				g, first.Seconds, last.Seconds)
		}
		// Sublinear: 20x fewer updates must not mean anywhere near 20x
		// less traffic (the bounding box slack effect).
		if first.MBytes/last.MBytes > 15 {
			t.Errorf("group %d: traffic scaling %.1fx is not sublinear",
				g, first.MBytes/last.MBytes)
		}
	}
}

func TestTable2ShapeSmall(t *testing.T) {
	rows := must(Table2(smallCircuit(), smallSetup()))(t)
	if len(rows) != 9 {
		t.Fatalf("Table 2 must have 9 rows, got %d", len(rows))
	}
	for g := 0; g < 3; g++ {
		r5, r30 := rows[g*3], rows[g*3+2]
		if r5.MBytes <= r30.MBytes {
			t.Errorf("group %d: RRD=5 traffic %.3f must exceed RRD=30 traffic %.3f",
				g, r5.MBytes, r30.MBytes)
		}
	}
}

func TestSenderReceiverTrafficOrdering(t *testing.T) {
	c := smallCircuit()
	s := smallSetup()
	t1 := must(Table1(c, s))(t)
	t2 := must(Table2(c, s))(t)
	var maxReceiver, minSender float64
	minSender = 1e18
	for _, r := range t1 {
		if r.MBytes < minSender {
			minSender = r.MBytes
		}
	}
	for _, r := range t2 {
		if r.MBytes > maxReceiver {
			maxReceiver = r.MBytes
		}
	}
	// The paper: sender initiated traffic is roughly an order of
	// magnitude above receiver initiated. At minimum the families must
	// be well separated at their extremes.
	if t1[0].MBytes <= t2[len(t2)-1].MBytes*5 {
		t.Errorf("sender max %.3f must be well above receiver min %.3f",
			t1[0].MBytes, t2[len(t2)-1].MBytes)
	}
	_ = maxReceiver
	_ = minSender
}

func TestBlockingShapeSmall(t *testing.T) {
	rows := must(Blocking(smallCircuit(), smallSetup()))(t)
	if len(rows)%2 != 0 {
		t.Fatalf("blocking rows must pair up")
	}
	for i := 0; i < len(rows); i += 2 {
		nb, bl := rows[i], rows[i+1]
		if bl.Seconds < nb.Seconds {
			t.Errorf("blocking %q (%.3fs) must not beat non-blocking (%.3fs)",
				bl.Label, bl.Seconds, nb.Seconds)
		}
		// Quality about the same (the paper's observation): within 15%.
		lo, hi := float64(nb.CktHt)*0.85, float64(nb.CktHt)*1.15
		if float64(bl.CktHt) < lo || float64(bl.CktHt) > hi {
			t.Errorf("blocking quality %d far from non-blocking %d", bl.CktHt, nb.CktHt)
		}
	}
}

func TestMixedShapeSmall(t *testing.T) {
	rows := must(Mixed(smallCircuit(), smallSetup()))(t)
	if len(rows) != 3 {
		t.Fatalf("mixed comparison must have 3 rows")
	}
	sender, receiver, mixed := rows[0], rows[1], rows[2]
	// The paper: mixed schemes improve the occupancy factor over either
	// pure scheme, at traffic below the frequent sender schedule.
	if mixed.Occupancy > sender.Occupancy || mixed.Occupancy > receiver.Occupancy {
		t.Errorf("mixed occupancy %d must beat pure sender %d and receiver %d",
			mixed.Occupancy, sender.Occupancy, receiver.Occupancy)
	}
	// At full scale mixed traffic undercuts the frequent sender schedule;
	// at this reduced scale allow near-equality.
	if mixed.MBytes > sender.MBytes*1.1 {
		t.Errorf("mixed traffic %.3f must not exceed the frequent sender schedule %.3f",
			mixed.MBytes, sender.MBytes)
	}
}

func TestTable3ShapeSmall(t *testing.T) {
	rows := must(Table3(smallCircuit(), smallSetup()))(t)
	if len(rows) != 4 {
		t.Fatalf("Table 3 must have 4 rows")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MBytes <= rows[i-1].MBytes {
			t.Errorf("traffic must grow with line size: %v then %v",
				rows[i-1], rows[i])
		}
	}
	// Significant growth overall (paper: more than 6x from 4 to 32).
	if rows[3].MBytes/rows[0].MBytes < 2 {
		t.Errorf("traffic growth %.1fx from 4B to 32B lines is too weak",
			rows[3].MBytes/rows[0].MBytes)
	}
	// Writes dominate the bus bytes (paper: over 80%).
	for _, r := range rows {
		if r.WriteFraction < 0.6 {
			t.Errorf("line %d: write fraction %.2f too low", r.LineSize, r.WriteFraction)
		}
	}
}

func TestTable4ShapeSmall(t *testing.T) {
	c := smallCircuit()
	rows := must(Table4([]*circuit.Circuit{c}, smallSetup()))(t)
	if len(rows) != 4 {
		t.Fatalf("Table 4 must have 4 rows per circuit")
	}
	byMethod := map[string]Table4Row{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	rr := byMethod["round robin"]
	inf := byMethod["ThresholdCost = inf."]
	t30 := byMethod["ThresholdCost = 30"]
	// Locality must not make quality worse than round robin (the paper:
	// it improves it by up to 5%).
	if inf.CktHt > rr.CktHt+2 {
		t.Errorf("pure locality quality %d worse than round robin %d", inf.CktHt, rr.CktHt)
	}
	// Pure locality suffers the load imbalance: worst (or tied worst)
	// execution time; the balanced threshold is fastest.
	if inf.Seconds < t30.Seconds {
		t.Errorf("pure locality (%.3fs) must not beat the balanced threshold (%.3fs)",
			inf.Seconds, t30.Seconds)
	}
}

func TestTable6ShapeSmall(t *testing.T) {
	s := smallSetup()
	rows := must(Table6(smallCircuit(), s))(t)
	if len(rows) != 4 {
		t.Fatalf("Table 6 must have 4 rows")
	}
	// Time decreases monotonically with processors.
	for i := 1; i < len(rows); i++ {
		if rows[i].Seconds >= rows[i-1].Seconds {
			t.Errorf("time must fall with processors: %d procs %.3fs vs %d procs %.3fs",
				rows[i].Procs, rows[i].Seconds, rows[i-1].Procs, rows[i-1].Seconds)
		}
	}
	// Quality does not improve with more processors (staleness).
	if rows[3].CktHt < rows[0].CktHt-2 {
		t.Errorf("16-proc quality %d markedly better than 2-proc %d",
			rows[3].CktHt, rows[0].CktHt)
	}
	// Speedup at the largest count is real (> half of linear).
	last := rows[len(rows)-1]
	if last.Speedup < float64(last.Procs)/4 {
		t.Errorf("speedup %.1f at %d procs is implausibly low", last.Speedup, last.Procs)
	}
}

func TestLocalityShapeSmall(t *testing.T) {
	c := smallCircuit()
	rows := must(Locality([]*circuit.Circuit{c}, smallSetup()))(t)
	byMethod := map[string]float64{}
	for _, r := range rows {
		byMethod[r.Method] = r.Measure
	}
	if byMethod["ThresholdCost = inf."] >= byMethod["round robin"] {
		t.Errorf("pure locality measure %.2f must beat round robin %.2f",
			byMethod["ThresholdCost = inf."], byMethod["round robin"])
	}
}

func TestComparisonShapeSmall(t *testing.T) {
	rows := must(Comparison(smallCircuit(), smallSetup()))(t)
	if len(rows) != 3 {
		t.Fatalf("comparison must have 3 rows")
	}
	smRow, snd, rcv := rows[0], rows[1], rows[2]
	// The paper's traffic cascade: shared memory >> sender initiated >
	// receiver initiated.
	if smRow.MBytes <= snd.MBytes*2 {
		t.Errorf("SM traffic %.3f must be well above sender MP %.3f", smRow.MBytes, snd.MBytes)
	}
	if snd.MBytes <= rcv.MBytes {
		t.Errorf("sender MP traffic %.3f must exceed receiver MP %.3f", snd.MBytes, rcv.MBytes)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	c := smallCircuit()
	s := smallSetup()
	outs := []string{
		RenderTable1(must(Table1(c, s))(t)[:2]),
		RenderTable2(must(Table2(c, s))(t)[:2]),
		RenderTable3(must(Table3(c, s))(t)),
		RenderTable4(must(Table4([]*circuit.Circuit{c}, s))(t)),
		RenderTable5(must(Table5([]*circuit.Circuit{c}, s))(t)),
		RenderTable6(must(Table6(c, s))(t)),
		RenderBlocking(must(Blocking(c, s))(t)),
		RenderMixed(must(Mixed(c, s))(t)),
		RenderLocality(must(Locality([]*circuit.Circuit{c}, s))(t)),
		RenderComparison(must(Comparison(c, s))(t)),
	}
	for i, out := range outs {
		if !strings.Contains(out, "\n---") && !strings.Contains(out, "--") {
			t.Errorf("render %d produced no table separator:\n%s", i, out)
		}
		if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
			t.Errorf("render %d too short:\n%s", i, out)
		}
	}
}

func TestBenchmarkCircuitsMatchPaperDimensions(t *testing.T) {
	b := BnrE()
	if len(b.Wires) != 420 || b.Grid.Channels != 10 || b.Grid.Grids != 341 {
		t.Errorf("bnrE-like shape wrong: %d wires, %dx%d", len(b.Wires), b.Grid.Channels, b.Grid.Grids)
	}
	m := MDC()
	if len(m.Wires) != 573 || m.Grid.Channels != 12 || m.Grid.Grids != 386 {
		t.Errorf("MDC-like shape wrong: %d wires, %dx%d", len(m.Wires), m.Grid.Channels, m.Grid.Grids)
	}
}

func TestTable5ShapeSmall(t *testing.T) {
	c := smallCircuit()
	rows := must(Table5([]*circuit.Circuit{c}, smallSetup()))(t)
	if len(rows) != 4 {
		t.Fatalf("Table 5 must have 4 rows per circuit")
	}
	byMethod := map[string]Table5Row{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	// Locality reduces coherence traffic relative to round robin.
	if byMethod["ThresholdCost = inf."].MBytes >= byMethod["round robin"].MBytes {
		t.Errorf("local SM traffic %.3f must undercut round robin %.3f",
			byMethod["ThresholdCost = inf."].MBytes, byMethod["round robin"].MBytes)
	}
}

func TestRobustnessSweepSmall(t *testing.T) {
	// A single-seed sweep exercises the plumbing; the full sweep runs in
	// cmd/paper -table robustness.
	s := smallSetup()
	rows := must(Robustness([]int64{2}, s))(t)
	if len(rows) != 5 {
		t.Fatalf("want 5 claims, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Total != 1 {
			t.Errorf("claim %q total = %d, want 1", r.Claim, r.Total)
		}
		if r.Margin <= 0 {
			t.Errorf("claim %q margin = %f", r.Claim, r.Margin)
		}
	}
	out := RenderRobustness(rows)
	if len(out) == 0 {
		t.Errorf("empty render")
	}
}

func TestAblationsSmall(t *testing.T) {
	c := smallCircuit()
	s := smallSetup()

	packets := must(PacketStructures(c, s))(t)
	if len(packets) != 3 {
		t.Fatalf("want 3 packet structures")
	}
	var bbox, whole PacketRow
	for _, r := range packets {
		switch r.Structure {
		case "bbox":
			bbox = r
		case "whole-region":
			whole = r
		}
	}
	if whole.MBytes <= bbox.MBytes {
		t.Errorf("whole-region traffic %.3f must exceed bbox %.3f", whole.MBytes, bbox.MBytes)
	}

	dist := must(WireDistribution(c, s))(t)
	if len(dist) != 2 {
		t.Fatalf("want 2 distribution rows")
	}

	own := must(CostArrayDistribution(c, s))(t)
	if len(own) != 2 {
		t.Fatalf("want 2 ownership rows")
	}
	if own[1].CktHt < own[0].CktHt-2 {
		t.Errorf("strict ownership quality %d should not beat replicated views %d",
			own[1].CktHt, own[0].CktHt)
	}

	for _, out := range []string{
		RenderPacketStructures(packets),
		RenderWireDistribution(dist),
		RenderCostArrayDistribution(own),
	} {
		if len(out) < 50 {
			t.Errorf("render too short: %q", out)
		}
	}
}

func TestNetworkSensitivitySmall(t *testing.T) {
	rows := must(NetworkSensitivity(smallCircuit(), smallSetup()))(t)
	if len(rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(rows))
	}
	// Deeper lookahead must not worsen the blocking penalty (the paper's
	// "better heuristic" prediction); compare ahead=1 vs ahead=60.
	if rows[4].Penalty > rows[0].Penalty+0.05 {
		t.Errorf("deep lookahead penalty %.2f should not exceed shallow %.2f",
			rows[4].Penalty, rows[0].Penalty)
	}
	for _, r := range rows {
		if r.Penalty < 0.9 {
			t.Errorf("%s: blocking implausibly faster (%.2f)", r.Label, r.Penalty)
		}
	}
	if out := RenderNetworkSensitivity(rows); len(out) < 50 {
		t.Errorf("render too short")
	}
}

func TestWireOrderingSmall(t *testing.T) {
	rows := must(WireOrdering(smallCircuit(), smallSetup()))(t)
	if len(rows) != 3 {
		t.Fatalf("want 3 orderings")
	}
	for _, r := range rows {
		if r.CktHt <= 0 {
			t.Errorf("%s: height %d", r.Order, r.CktHt)
		}
	}
	if out := RenderWireOrdering(rows); len(out) < 50 {
		t.Errorf("render too short")
	}
}

func TestTopologySmall(t *testing.T) {
	rows := must(Topology(smallCircuit(), smallSetup()))(t)
	if len(rows) != 3 {
		t.Fatalf("want 3 topologies")
	}
	// Identical protocol behaviour: same traffic bytes on every shape.
	for _, r := range rows[1:] {
		if r.MBytes != rows[0].MBytes {
			t.Errorf("traffic must be topology-independent: %.3f vs %.3f",
				r.MBytes, rows[0].MBytes)
		}
	}
	if out := RenderTopology(rows); len(out) < 50 {
		t.Errorf("render too short")
	}
}

// TestPartitionTable renders the partition sweep and checks its
// one-partition row against the sequential baseline: the same route hash
// (the 12-hex cost-array fingerprint), and "yes" in the = Seq column.
func TestPartitionTable(t *testing.T) {
	s := smallSetup()
	s.Partitions = []int{1, 2}
	text, err := Render("partition", smallCircuit(), smallCircuit(), s)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(text, "\n") {
		for _, label := range []string{"sequential", "partitioned p=1", "partitioned p=2"} {
			if strings.HasPrefix(line, label+" ") {
				rows[label] = strings.Fields(line)
			}
		}
	}
	seq, p1 := rows["sequential"], rows["partitioned p=1"]
	if seq == nil || p1 == nil || rows["partitioned p=2"] == nil {
		t.Fatalf("missing rows in the partition table:\n%s", text)
	}
	seqHash, p1Hash := seq[len(seq)-2], p1[len(p1)-2]
	if len(seqHash) != 12 || p1Hash != seqHash {
		t.Errorf("p=1 route hash %q, sequential %q: want the same 12-hex fingerprint", p1Hash, seqHash)
	}
	if got := p1[len(p1)-1]; got != "yes" {
		t.Errorf("p=1 row's = Seq column reads %q, want yes:\n%s", got, text)
	}
}
