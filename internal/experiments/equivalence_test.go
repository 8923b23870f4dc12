package experiments

import (
	"fmt"
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/mp"
	"locusroute/internal/route"
	"locusroute/internal/sm"
	"locusroute/internal/trace"
)

// quality is the (circuit height, occupancy factor) pair every backend
// reports.
type quality struct{ Height, Occupancy int64 }

// equivalenceGolden pins the routing quality of every execution backend
// on three seeded bnrE-like circuits. The values are produced by the one
// shared routing kernel, so any change that perturbs candidate
// enumeration order, tie-breaking, or the work count shows up here
// immediately — across every backend at once.
//
// The traced SM and DES MP runtimes run with four processors, and again
// with one, where they must reproduce the sequential reference.
var equivalenceGolden = map[int64]map[string]quality{
	1: {
		"sequential":       {51, 7542},
		"sm-traced-1p":     {51, 7542},
		"sm-traced-4p":     {52, 7039},
		"mp-des-4p":        {51, 7677},
		"mp-des-4p-wire":   {53, 7682},
		"mp-des-4p-region": {52, 7699},
		"mp-des-1p":        {51, 7542},
	},
	2: {
		"sequential":       {49, 7307},
		"sm-traced-1p":     {49, 7307},
		"sm-traced-4p":     {50, 7108},
		"mp-des-4p":        {50, 7250},
		"mp-des-4p-wire":   {48, 7218},
		"mp-des-4p-region": {49, 7187},
		"mp-des-1p":        {49, 7307},
	},
	3: {
		"sequential":       {50, 6767},
		"sm-traced-1p":     {50, 6767},
		"sm-traced-4p":     {52, 6221},
		"mp-des-4p":        {51, 6679},
		"mp-des-4p-wire":   {51, 6776},
		"mp-des-4p-region": {50, 6739},
		"mp-des-1p":        {50, 6767},
	},
}

func equivCircuit(seed int64) *circuit.Circuit {
	return circuit.MustGenerate(circuit.GenParams{
		Name: "equiv", Channels: 10, Grids: 160, Wires: 180, MeanSpan: 20, Seed: seed,
	})
}

// TestCrossBackendEquivalence routes the same seeded circuits through
// sequential, traced shared memory and DES message passing at one and
// four processors and checks each against its golden quality values. Each
// seed is an independent unit of work and runs as a parallel subtest.
func TestCrossBackendEquivalence(t *testing.T) {
	for seed, golden := range equivalenceGolden {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			testCrossBackendEquivalence(t, seed, golden)
		})
	}
}

func testCrossBackendEquivalence(t *testing.T, seed int64, golden map[string]quality) {
	c := equivCircuit(seed)
	params := route.DefaultParams()
	params.Iterations = 2

	got := make(map[string]quality)

	seq, _ := route.Sequential(c, params)
	got["sequential"] = quality{seq.CircuitHeight, seq.Occupancy}

	for _, procs := range []int{1, 4} {
		smTr, err := sm.RunTraced(c, sm.Config{Procs: procs, Router: params}, func([]trace.Ref) {})
		if err != nil {
			t.Fatalf("seed %d: sm.RunTraced %dp: %v", seed, procs, err)
		}
		got[fmt.Sprintf("sm-traced-%dp", procs)] = quality{smTr.CircuitHeight, smTr.Occupancy}
	}

	part4, err := geom.NewPartition(c.Grid, 2, 2)
	if err != nil {
		t.Fatalf("seed %d: partition: %v", seed, err)
	}
	cfg4 := mp.DefaultConfig(mp.SenderInitiated(2, 10))
	cfg4.Procs = 4
	cfg4.Router = params
	des, err := mp.Run(c, assign.AssignThreshold(c, part4, 1000), cfg4)
	if err != nil {
		t.Fatalf("seed %d: mp.Run: %v", seed, err)
	}
	got["mp-des-4p"] = quality{des.CircuitHeight, des.Occupancy}

	// The packet-structure ablations ride the same DES runtime and
	// protocol; pinning them here catches changes that perturb only
	// the wire-based or whole-region update paths.
	for name, structure := range map[string]mp.PacketStructure{
		"mp-des-4p-wire":   mp.StructureWireBased,
		"mp-des-4p-region": mp.StructureWholeRegion,
	} {
		cfgS := mp.DefaultConfig(mp.SenderInitiated(2, 10))
		cfgS.Procs = 4
		cfgS.Router = params
		cfgS.Packets = structure
		res, err := mp.Run(c, assign.AssignThreshold(c, part4, 1000), cfgS)
		if err != nil {
			t.Fatalf("seed %d: mp.Run %s: %v", seed, name, err)
		}
		got[name] = quality{res.CircuitHeight, res.Occupancy}
	}

	part1, err := geom.NewPartition(c.Grid, 1, 1)
	if err != nil {
		t.Fatalf("seed %d: partition 1x1: %v", seed, err)
	}
	cfg1 := mp.DefaultConfig(mp.SenderInitiated(2, 10))
	cfg1.Procs = 1
	cfg1.Router = params
	des1, err := mp.Run(c, assign.AssignThreshold(c, part1, 1000), cfg1)
	if err != nil {
		t.Fatalf("seed %d: mp.Run 1p: %v", seed, err)
	}
	got["mp-des-1p"] = quality{des1.CircuitHeight, des1.Occupancy}

	for backend, want := range golden {
		if got[backend] != want {
			t.Errorf("seed %d %s: (height, occupancy) = %v, golden %v",
				seed, backend, got[backend], want)
		}
	}

	// A single processor removes all interference, so both parallel
	// runtimes must reproduce the sequential reference exactly — the
	// strongest statement that every backend shares one kernel.
	for _, backend := range []string{"sm-traced-1p", "mp-des-1p"} {
		if got[backend] != got["sequential"] {
			t.Errorf("seed %d: %s %v != sequential %v",
				seed, backend, got[backend], got["sequential"])
		}
	}
}
