package sm

import (
	"bytes"
	"reflect"
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/cache"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/perf"
	"locusroute/internal/route"
	"locusroute/internal/sim"
	"locusroute/internal/trace"
)

// discard is the sink of runs whose references are not looked at.
func discard([]trace.Ref) {}

// collect runs the traced router keeping its trace.
func collect(c *circuit.Circuit, cfg Config) (Result, *trace.Trace, error) {
	tr := &trace.Trace{}
	res, err := RunTraced(c, cfg, tr.AppendBatch)
	return res, tr, err
}

func smallCircuit(seed int64) *circuit.Circuit {
	return circuit.MustGenerate(circuit.GenParams{
		Name: "small", Channels: 8, Grids: 64, Wires: 60, MeanSpan: 10,
		LongFrac: 0.1, Seed: seed,
	})
}

func TestTracedSingleProcMatchesSequential(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 1
	cfg.Router.Iterations = 2
	res, tr, err := collect(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := route.Sequential(c, cfg.Router)
	if res.CircuitHeight != seq.CircuitHeight {
		t.Errorf("1-proc traced height %d != sequential %d", res.CircuitHeight, seq.CircuitHeight)
	}
	if res.Occupancy != seq.Occupancy {
		t.Errorf("1-proc traced occupancy %d != sequential %d", res.Occupancy, seq.Occupancy)
	}
	if tr.Len() == 0 {
		t.Errorf("trace must not be empty")
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Errorf("reads/writes = %d/%d", res.Reads, res.Writes)
	}
}

func TestTracedDeterministic(t *testing.T) {
	c := smallCircuit(2)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	a, ta, err := collect(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := collect(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Final.Equal(b.Final) {
		t.Errorf("final cost arrays differ")
	}
	a.Final, b.Final = nil, nil
	if a != b {
		t.Errorf("results differ: %+v vs %+v", a, b)
	}
	if ta.Len() != tb.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", ta.Len(), tb.Len())
	}
	for i := range ta.Refs {
		if ta.Refs[i] != tb.Refs[i] {
			t.Fatalf("trace ref %d differs", i)
		}
	}
}

// TestTracedTraceIsSorted watches the sink: what RunTraced emits never
// steps back in (T, Proc) — also when shared accesses cost no time, so
// that whole wires are emitted at one instant and only the strict
// watermark keeps processes apart — and every reference it counted
// arrives. On the paper's circuit at 16 processes only a small window of
// the trace is ever buffered: it is streamed to its consumer, not stored.
func TestTracedTraceIsSorted(t *testing.T) {
	bnrE := circuit.MustGenerate(circuit.BnrELike(1))
	for _, tc := range []struct {
		name  string
		c     *circuit.Circuit
		procs int
		perf  perf.Model
	}{
		{"small/4", smallCircuit(3), 4, perf.Default()},
		{"small/4/free accesses", smallCircuit(3), 4, perf.Model{WireOverhead: sim.Microsecond}},
		{"bnrE/16", bnrE, 16, perf.Default()},
	} {
		cfg := DefaultConfig()
		cfg.Procs = tc.procs
		cfg.Perf = tc.perf
		var last trace.Ref
		emitted := 0
		res, err := RunTraced(tc.c, cfg, func(batch []trace.Ref) {
			for _, r := range batch {
				if r.T < last.T || (r.T == last.T && r.Proc < last.Proc) {
					t.Fatalf("%s: ref %d (T=%d, proc %d) emitted after (T=%d, proc %d)",
						tc.name, emitted, r.T, r.Proc, last.T, last.Proc)
				}
				last = r
				emitted++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if emitted == 0 || emitted != res.Reads+res.Writes {
			t.Errorf("%s: %d refs emitted, %d reads + %d writes counted", tc.name, emitted, res.Reads, res.Writes)
		}
		if tc.c == bnrE && (res.PeakBuffered <= 0 || res.PeakBuffered >= emitted/4) {
			t.Errorf("%s: %d of %d refs buffered at the peak, want a window under a quarter",
				tc.name, res.PeakBuffered, emitted)
		}
		t.Logf("%s: %d refs, peak buffered %d", tc.name, emitted, res.PeakBuffered)
	}
}

// TestTracedTraceFileRoundTrip: a trace as RunTraced emits it is in the
// order trace.ReadFile insists on.
func TestTracedTraceFileRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 4
	_, tr, err := collect(smallCircuit(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteFile(&buf, tr, cfg.Procs); err != nil {
		t.Fatal(err)
	}
	got, procs, err := trace.ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if procs != cfg.Procs || !reflect.DeepEqual(got.Refs, tr.Refs) {
		t.Errorf("round trip changed the trace: %d procs, %d refs (want %d, %d)",
			procs, got.Len(), cfg.Procs, tr.Len())
	}
}

func TestTracedDynamicRoutesEveryWireEachIteration(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 3
	res, err := RunTraced(c, cfg, discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.WiresRouted != 3*len(c.Wires) {
		t.Errorf("WiresRouted = %d, want %d", res.WiresRouted, 3*len(c.Wires))
	}
}

func TestTracedStaticAssignment(t *testing.T) {
	c := smallCircuit(1)
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	asn := assign.AssignThreshold(c, part, 1000)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Order = Static
	cfg.Assignment = asn
	cfg.Router.Iterations = 2
	res, err := RunTraced(c, cfg, discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.WiresRouted != 2*len(c.Wires) {
		t.Errorf("WiresRouted = %d", res.WiresRouted)
	}
}

func TestTracedValidation(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 0
	if _, err := RunTraced(c, cfg, discard); err == nil {
		t.Errorf("zero procs must fail")
	}
	cfg = DefaultConfig()
	cfg.Order = Static
	if _, err := RunTraced(c, cfg, discard); err == nil {
		t.Errorf("static without assignment must fail")
	}
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	cfg.Assignment = assign.AssignRoundRobin(c, part)
	cfg.Procs = 16 // mismatch
	if _, err := RunTraced(c, cfg, discard); err == nil {
		t.Errorf("proc mismatch must fail")
	}
}

func TestTracedQualityDegradesWithProcs(t *testing.T) {
	// Section 5.4 for the shared memory version: quality degrades as
	// processors are added because in-flight work is invisible.
	c := circuit.MustGenerate(circuit.BnrELike(1))
	one := DefaultConfig()
	one.Procs = 1
	one.Router.Iterations = 2
	r1, err := RunTraced(c, one, discard)
	if err != nil {
		t.Fatal(err)
	}
	sixteen := DefaultConfig()
	sixteen.Procs = 16
	sixteen.Router.Iterations = 2
	r16, err := RunTraced(c, sixteen, discard)
	if err != nil {
		t.Fatal(err)
	}
	if r16.CircuitHeight < r1.CircuitHeight {
		t.Errorf("16-proc height %d better than uniprocessor %d — interference model broken",
			r16.CircuitHeight, r1.CircuitHeight)
	}
	if r16.Span >= r1.Span {
		t.Errorf("16 procs (%v) must have smaller makespan than 1 (%v)", r16.Span, r1.Span)
	}
}

func TestTracedFeedsCacheSimulator(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	_, tr, err := collect(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	for _, ls := range []int{4, 8, 16, 32} {
		traffic, err := cache.Replay(tr, 4, ls)
		if err != nil {
			t.Fatal(err)
		}
		if traffic.Bytes() <= last {
			t.Errorf("line %d: traffic %d did not grow from %d (Table 3 shape)",
				ls, traffic.Bytes(), last)
		}
		last = traffic.Bytes()
	}
}
