package mp

import (
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/geom"
	"locusroute/internal/msg"
)

func runStrict(t *testing.T, procs int) Result {
	t.Helper()
	c := smallCircuit(1)
	cfg := DefaultConfig(Strategy{})
	cfg.Procs = procs
	cfg.Router.Iterations = 2
	cfg.StrictOwnership = true
	px, py := geom.SquarestFactors(procs)
	part, err := geom.NewPartition(c.Grid, px, py)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, assign.ThresholdInfinity)
	res, err := Run(c, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStrictCompletesAndRoutesEverything(t *testing.T) {
	res := runStrict(t, 4)
	if res.CircuitHeight <= 0 {
		t.Fatalf("strict run produced no routing: %+v", res)
	}
	if res.Occupancy <= 0 {
		t.Errorf("occupancy = %d", res.Occupancy)
	}
	// Cross-region tasks must have moved.
	if res.PacketsByKind[msg.KindPassTask] == 0 {
		t.Errorf("no tasks crossed region boundaries")
	}
	if res.PacketsByKind[msg.KindSegDone] == 0 {
		t.Errorf("no remote segment completions reported")
	}
}

func TestStrictHasNoUpdateKinds(t *testing.T) {
	res := runStrict(t, 4)
	for _, k := range []msg.Kind{
		msg.KindSendLocData, msg.KindSendRmtData,
		msg.KindReqRmtData, msg.KindReqLocData,
		msg.KindRspRmtData, msg.KindRspLocData,
	} {
		if res.PacketsByKind[k] != 0 {
			t.Errorf("strict ownership must not produce %v packets", k)
		}
	}
}

func TestStrictDeterministic(t *testing.T) {
	a := runStrict(t, 4)
	b := runStrict(t, 4)
	if a.CircuitHeight != b.CircuitHeight || a.Occupancy != b.Occupancy || a.Time != b.Time {
		t.Errorf("strict runs differ: %+v vs %+v", a, b)
	}
}

func TestStrictQualityWorseThanReplicatedViews(t *testing.T) {
	// Per-region greedy routing cannot beat globally evaluated routes;
	// the scheme's quality should be no better than the paper's chosen
	// design under a comparable configuration.
	strict := runStrict(t, 4)
	chosen := runSmall(t, 4, SenderInitiated(2, 10))
	if strict.CircuitHeight < chosen.CircuitHeight-2 {
		t.Errorf("strict quality %d should not beat replicated views %d",
			strict.CircuitHeight, chosen.CircuitHeight)
	}
}

func TestStrictSingleProcessorNoMessages(t *testing.T) {
	res := runStrict(t, 1)
	if res.Net.Packets != 0 {
		t.Errorf("1-processor strict run moved %d packets", res.Net.Packets)
	}
	if res.CircuitHeight <= 0 {
		t.Errorf("no routing happened")
	}
}

func TestStrictValidation(t *testing.T) {
	c := smallCircuit(1)
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	asn := assign.AssignThreshold(c, part, assign.ThresholdInfinity)
	cfg := DefaultConfig(SenderInitiated(2, 10))
	cfg.Procs = 4
	cfg.StrictOwnership = true
	if _, err := Run(c, asn, cfg); err == nil {
		t.Errorf("strict with an update strategy must fail")
	}
}

func TestStepToward(t *testing.T) {
	cases := []struct{ p, tgt, want geom.Point }{
		{geom.Pt(3, 3), geom.Pt(5, 3), geom.Pt(4, 3)},
		{geom.Pt(3, 3), geom.Pt(1, 3), geom.Pt(2, 3)},
		{geom.Pt(3, 3), geom.Pt(3, 7), geom.Pt(3, 4)},
		{geom.Pt(3, 3), geom.Pt(3, 0), geom.Pt(3, 2)},
		{geom.Pt(3, 3), geom.Pt(5, 9), geom.Pt(4, 3)}, // x preferred
	}
	for _, cse := range cases {
		if got := stepToward(cse.p, cse.tgt); got != cse.want {
			t.Errorf("stepToward(%v,%v) = %v, want %v", cse.p, cse.tgt, got, cse.want)
		}
	}
}

func TestClampInto(t *testing.T) {
	r := geom.R(2, 2, 6, 5)
	cases := []struct{ p, want geom.Point }{
		{geom.Pt(0, 0), geom.Pt(2, 2)},
		{geom.Pt(9, 9), geom.Pt(6, 5)},
		{geom.Pt(4, 3), geom.Pt(4, 3)},
		{geom.Pt(0, 4), geom.Pt(2, 4)},
	}
	for _, cse := range cases {
		if got := clampInto(r, cse.p); got != cse.want {
			t.Errorf("clampInto(%v) = %v, want %v", cse.p, got, cse.want)
		}
		if !clampInto(r, cse.p).In(r) {
			t.Errorf("clamped point must be inside the region")
		}
	}
}
