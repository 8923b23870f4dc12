package mp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/geom"
	"locusroute/internal/tracev"
)

// runTraced runs the small circuit on a 2x2 mesh with tracing enabled
// and returns the run result plus its tracer.
func runTraced(t *testing.T, st Strategy, strict bool) (Result, *tracev.Tracer) {
	t.Helper()
	c := smallCircuit(1)
	cfg := DefaultConfig(st)
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	cfg.StrictOwnership = strict
	cfg.Trace = tracev.New(0)
	px, py := geom.SquarestFactors(cfg.Procs)
	part, err := geom.NewPartition(c.Grid, px, py)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, 1000)
	if strict {
		asn = assign.AssignThreshold(c, part, assign.ThresholdInfinity)
	}
	res, err := Run(c, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Trace
}

// TestTraceChromeDocumentStructure is the golden structural test: a tiny
// 2x2 mesh run must produce a Chrome trace-event document that parses,
// balances every span, resolves every flow arrow, and keeps per-track
// timestamps monotonic.
func TestTraceChromeDocumentStructure(t *testing.T) {
	_, tr := runTraced(t, SenderInitiated(2, 10), false)
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("small run overflowed the default ring (%d dropped)", tr.Dropped())
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, ChromeOptions("small", 4)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   json.Number     `json:"ts"`
			Tid  int32           `json:"tid"`
			ID   uint64          `json:"id"`
			Args map[string]any  `json:"args"`
			Raw  json.RawMessage `json:"-"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	depth := map[int32]int{}
	lastTS := map[int32]float64{}
	flowStarts := map[uint64]bool{}
	var spans, flows int
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		ts, err := e.Ts.Float64()
		if err != nil {
			t.Fatalf("bad ts %q: %v", e.Ts, err)
		}
		if prev, ok := lastTS[e.Tid]; ok && ts < prev {
			t.Fatalf("track %d timestamps not monotonic: %v after %v", e.Tid, ts, prev)
		}
		lastTS[e.Tid] = ts
		switch e.Ph {
		case "B":
			depth[e.Tid]++
			spans++
		case "E":
			depth[e.Tid]--
			if depth[e.Tid] < 0 {
				t.Fatalf("track %d closes a span it never opened", e.Tid)
			}
		case "s":
			flowStarts[e.ID] = true
			flows++
		case "f":
			if !flowStarts[e.ID] {
				t.Fatalf("flow %d finishes without a start", e.ID)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("track %d has %d unclosed spans", tid, d)
		}
	}
	if spans == 0 {
		t.Error("no spans recorded")
	}
	if flows == 0 {
		t.Error("no packet flows recorded")
	}
}

// TestCriticalPathTotalEqualsSimTime checks the analyzer's core
// invariant on a real run: the walk attributes exactly the run's
// simulated time, and the category sums partition it. The run's own
// Result.CritPath must be that same analysis, so its consumers (the run
// document, locusroute -trace, the critpath table) need not analyze the
// trace again.
func TestCriticalPathTotalEqualsSimTime(t *testing.T) {
	for _, tc := range []struct {
		name   string
		st     Strategy
		strict bool
	}{
		{"sender-initiated", SenderInitiated(2, 10), false},
		{"receiver-blocking", ReceiverInitiated(1, 5, true), false},
		{"strict-ownership", Strategy{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, tr := runTraced(t, tc.st, tc.strict)
			cp, err := tracev.Analyze(tr.Events())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.CritPath, cp) {
				t.Error("Result.CritPath differs from tracev.Analyze of the run's trace")
			}
			if cp.TotalNs != int64(res.Time) {
				t.Errorf("critical path total %d != simulated time %d", cp.TotalNs, int64(res.Time))
			}
			var sum int64
			for _, ns := range cp.ByCat {
				sum += ns
			}
			if sum != cp.TotalNs {
				t.Errorf("categories sum to %d, want %d", sum, cp.TotalNs)
			}
			if len(cp.Steps) == 0 {
				t.Error("critical path has no steps")
			}
			if cp.ByCat[tracev.CatUntraced] != 0 {
				t.Errorf("untraced time %d on a fully retained trace", cp.ByCat[tracev.CatUntraced])
			}
		})
	}
}

// TestCriticalPathBlockingVsNonBlocking mirrors the paper's Section
// 5.1.3: a blocking schedule's critical path carries blocked time, a
// non-blocking schedule's carries exactly none (a non-blocking node
// never parks outside the barrier, so no blocked interval can exist on
// any path).
func TestCriticalPathBlockingVsNonBlocking(t *testing.T) {
	_, blockingTr := runTraced(t, ReceiverInitiated(1, 5, true), false)
	bp, err := tracev.Analyze(blockingTr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if bp.ByCat[tracev.CatBlocked] == 0 {
		t.Error("blocking schedule's critical path reports zero blocked time")
	}

	_, nonBlockingTr := runTraced(t, ReceiverInitiated(1, 5, false), false)
	np, err := tracev.Analyze(nonBlockingTr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if np.ByCat[tracev.CatBlocked] != 0 {
		t.Errorf("non-blocking schedule's critical path reports %d ns blocked", np.ByCat[tracev.CatBlocked])
	}
}

// TestTraceIsOutputNeutral: enabling tracing must not change the
// simulation by a single nanosecond or byte — the guarantee behind the
// byte-identical `paper -all` acceptance bar.
func TestTraceIsOutputNeutral(t *testing.T) {
	plain := runSmall(t, 4, ReceiverInitiated(1, 5, true))
	traced, _ := runTraced(t, ReceiverInitiated(1, 5, true), false)
	if plain.Time != traced.Time {
		t.Errorf("tracing changed simulated time: %v vs %v", plain.Time, traced.Time)
	}
	if plain.CircuitHeight != traced.CircuitHeight || plain.Occupancy != traced.Occupancy {
		t.Error("tracing changed routing quality")
	}
	if plain.Net.Bytes != traced.Net.Bytes || plain.Net.Packets != traced.Net.Packets {
		t.Error("tracing changed network traffic")
	}
}

// TestObsRunIncludesCritPath: the v2 schema's crit_path section appears
// when a run was traced and its totals match the analyzer.
func TestObsRunIncludesCritPath(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig(SenderInitiated(2, 10))
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	cfg.Trace = tracev.New(0)
	px, py := geom.SquarestFactors(cfg.Procs)
	part, err := geom.NewPartition(c.Grid, px, py)
	if err != nil {
		t.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, 1000)
	res, err := Run(c, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := ObsRun("traced", "small", cfg, res)
	if run.CritPath == nil {
		t.Fatal("traced run document has no crit_path section")
	}
	if run.CritPath.TotalNs != int64(res.Time) {
		t.Errorf("crit_path total %d != sim time %d", run.CritPath.TotalNs, int64(res.Time))
	}
	if got := run.CritPath.ComputeNs + run.CritPath.PacketNs + run.CritPath.BlockedNs +
		run.CritPath.BarrierNs + run.CritPath.NetworkNs + run.CritPath.UntracedNs; got != run.CritPath.TotalNs {
		t.Errorf("crit_path categories sum to %d, want %d", got, run.CritPath.TotalNs)
	}
	if len(run.CritPath.Steps) == 0 {
		t.Error("crit_path has no steps")
	}

	// Untraced runs carry no critical path and must not grow the section.
	cfg.Trace = nil
	plain := runSmall(t, 4, SenderInitiated(2, 10))
	if plain.CritPath != nil {
		t.Error("untraced run has a critical path")
	}
	if doc := ObsRun("plain", "small", cfg, plain); doc.CritPath != nil {
		t.Error("untraced run document has a crit_path section")
	}
}
