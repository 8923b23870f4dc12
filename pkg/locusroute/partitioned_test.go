package locusroute

import (
	"context"
	"testing"

	"locusroute/internal/obs"
)

// TestPartitionedBackendMatchesSequential pins the backend-level
// equivalence: the partitioned backend at one partition produces the
// same quality numbers and the same final cost array as the sequential
// backend, across seeds. (The kernel-level byte-for-byte pin lives in
// internal/part; this covers the option plumbing.)
func TestPartitionedBackendMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c, err := BnrE(seed)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewSequential()
		if err != nil {
			t.Fatal(err)
		}
		part1, err := NewPartitioned(WithPartitions(1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.Route(context.Background(), Request{Circuit: c})
		if err != nil {
			t.Fatal(err)
		}
		got, err := part1.Route(context.Background(), Request{Circuit: c})
		if err != nil {
			t.Fatal(err)
		}
		if got.CircuitHeight != want.CircuitHeight || got.Occupancy != want.Occupancy ||
			got.WiresRouted != want.WiresRouted || got.CellsExamined != want.CellsExamined {
			t.Errorf("seed %d: partitioned(1) quality %+v != sequential %+v", seed, got, want)
		}
		if !got.Final.Equal(want.Final) {
			t.Errorf("seed %d: partitioned(1) final cost array differs from sequential", seed)
		}
	}
}

// TestPartitionedBackendDeterministic: the partitioned backend is a
// pure function of its inputs regardless of the processor bound.
func TestPartitionedBackendDeterministic(t *testing.T) {
	c, err := BnrE(5)
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for i, procs := range []int{1, 2, 8} {
		be, err := NewPartitioned(WithPartitions(4), WithProcs(procs))
		if err != nil {
			t.Fatal(err)
		}
		res, err := be.Route(context.Background(), Request{Circuit: c})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.CircuitHeight != ref.CircuitHeight || res.Occupancy != ref.Occupancy ||
			res.CellsExamined != ref.CellsExamined {
			t.Errorf("procs %d: result %+v differs from procs-1 reference %+v", procs, res, ref)
		}
		if !res.Final.Equal(ref.Final) {
			t.Errorf("procs %d: final cost array depends on the processor bound", procs)
		}
	}
}

// TestPartitionedObserverDoc: the partition section rides in the run
// document with the region counters filled in.
func TestPartitionedObserverDoc(t *testing.T) {
	c, err := BnrE(1)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	be, err := NewPartitioned(WithPartitions(4), WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Route(context.Background(), Request{Circuit: c}); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot("test")
	if len(snap.Runs) != 1 {
		t.Fatalf("collector has %d runs, want 1", len(snap.Runs))
	}
	p := snap.Runs[0].Partition
	if p == nil {
		t.Fatal("run document has no partition section")
	}
	if p.Partitions != 4 {
		t.Errorf("partition doc reports %d partitions, want 4", p.Partitions)
	}
	if p.BoundaryWires <= 0 || p.BoundaryFrac <= 0 {
		t.Errorf("partition doc has no boundary wires (%d, %v); bnrE has long wires", p.BoundaryWires, p.BoundaryFrac)
	}
	if len(p.RegionWallNs) == 0 {
		t.Error("partition doc has no per-region timings")
	}
}

// TestNegotiatedOnSequentialBackend: WithNegotiatedCongestion composes
// with the sequential backend and surfaces the schedule counters.
func TestNegotiatedOnSequentialBackend(t *testing.T) {
	c, err := BnrE(1)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	be, err := NewSequential(WithNegotiatedCongestion(), WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	res, err := be.Route(context.Background(), Request{Circuit: c})
	if err != nil {
		t.Fatal(err)
	}
	if res.CircuitHeight <= 0 || res.Final == nil {
		t.Errorf("degenerate negotiated result: %+v", res)
	}
	p := col.Snapshot("test").Runs[0].Partition
	if p == nil || p.NegotiatedIters < 1 {
		t.Errorf("negotiated run document missing schedule counters: %+v", p)
	}
}

// TestPartitionOptionRejection: the new options fail on backends they
// do not apply to, at construction.
func TestPartitionOptionRejection(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"partitions on sequential", func() error {
			_, err := NewSequential(WithPartitions(4))
			return err
		}},
		{"partitions on MP", func() error {
			_, err := NewMessagePassing(WithPartitions(4))
			return err
		}},
		{"zero partitions", func() error {
			_, err := NewPartitioned(WithPartitions(0))
			return err
		}},
		{"negotiation on SM", func() error {
			_, err := NewTracedSharedMemory(WithNegotiatedCongestion())
			return err
		}},
		{"wire distribution on partitioned", func() error {
			_, err := NewPartitioned(WithRoundRobin())
			return err
		}},
	}
	for _, cse := range cases {
		if cse.err() == nil {
			t.Errorf("%s: constructor accepted an inapplicable configuration", cse.name)
		}
	}
}
