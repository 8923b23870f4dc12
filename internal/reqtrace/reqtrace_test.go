package reqtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"log/slog"
)

func TestStageNamesRoundTrip(t *testing.T) {
	want := []string{"admit", "queue", "batch", "route", "commit", "respond"}
	if int(NumStages) != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, name := range want {
		st := Stage(i)
		if st.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", i, st.String(), name)
		}
	}
	if s := Stage(200).String(); s != "stage200" {
		t.Errorf("out-of-range stage = %q", s)
	}
}

func TestOutcomeNames(t *testing.T) {
	want := []string{"ok", "cached", "rejected", "denied", "shed", "evicted", "expired"}
	if int(NumOutcomes) != len(want) {
		t.Fatalf("NumOutcomes = %d, want %d", NumOutcomes, len(want))
	}
	for i, name := range want {
		if got := Outcome(i).String(); got != name {
			t.Errorf("Outcome(%d).String() = %q, want %q", i, got, name)
		}
	}
}

// TestNilTracer pins the disabled-path contract: every method on a nil
// tracer and its inert span is a no-op.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if tr.Now() != 0 {
		t.Error("nil tracer clock is not 0")
	}
	if from, to := tr.CaptureFor(time.Second); from != 0 || to != 0 {
		t.Error("nil tracer opened a capture window")
	}
	if tr.Records() != nil {
		t.Error("nil tracer returned records")
	}
	if tr.Stats() != (Stats{}) {
		t.Error("nil tracer returned stats")
	}
	s := tr.Begin("id", "c", "cl", 7)
	if s.Traced() {
		t.Error("span from nil tracer is live")
	}
	if s.ID() != "" {
		t.Error("span from nil tracer has an id")
	}
	s.Mark(StageAdmit)
	s.MarkAt(StageQueue, 42)
	s.Element("cache", time.Millisecond)
	s.SetShard(3)
	if s.Finish(OutcomeOK, nil) {
		t.Error("span from nil tracer finished live")
	}
}

func TestMintAndAdopt(t *testing.T) {
	tr := New(Options{Sample: 1, Capacity: 8})
	s1 := tr.Begin("", "c", "", 1)
	s2 := tr.Begin("client-xyz", "c", "", 2)
	if got := s1.ID(); got != "r00000001" {
		t.Errorf("minted id = %q, want r00000001", got)
	}
	if got := s2.ID(); got != "client-xyz" {
		t.Errorf("adopted id = %q, want client-xyz", got)
	}
	var r1, r2 Rec
	if !s1.Finish(OutcomeOK, &r1) {
		t.Fatal("s1 did not finish live")
	}
	if r1.ID != 1 || r1.IDString() != "r00000001" {
		t.Errorf("finished rec = %+v", r1)
	}
	s2.Finish(OutcomeOK, &r2)
	if r2.ID != 2 || r2.TraceID != "client-xyz" || r2.IDString() != "client-xyz" {
		t.Errorf("adopted rec = %+v", r2)
	}
}

// TestTelescoping pins the central invariant: the per-stage breakdown
// sums to wall latency exactly, in integer nanoseconds, no matter how
// the boundaries were marked.
func TestTelescoping(t *testing.T) {
	tr := New(Options{Sample: 1, Capacity: 8})
	s := tr.Begin("", "c", "cl", 9)
	s.Mark(StageAdmit)
	time.Sleep(time.Millisecond)
	s.Mark(StageQueue)
	// Externally captured stamps, as the shard loop hands back.
	now := tr.Now()
	s.MarkAt(StageBatch, now)
	s.MarkAt(StageRoute, now+2_000_000)
	s.MarkAt(StageCommit, now+2_500_000)
	var rec Rec
	if !s.Finish(OutcomeOK, &rec) {
		t.Fatal("span did not finish")
	}
	var sum int64
	for _, ns := range rec.Stages {
		if ns < 0 {
			t.Fatalf("negative stage duration: %+v", rec.Stages)
		}
		sum += ns
	}
	if sum != rec.Wall {
		t.Fatalf("stages sum %d != wall %d", sum, rec.Wall)
	}
	if rec.Wall < 3_000_000 {
		t.Fatalf("wall %dns does not cover the marked boundaries", rec.Wall)
	}
	if rec.Stages[StageRoute] != 2_000_000 || rec.Stages[StageCommit] != 500_000 {
		t.Fatalf("stamped stages = %+v", rec.Stages)
	}
}

// TestMarkAtClamp pins the defense against misordered stamps: a stamp
// earlier than the previous boundary charges zero and the invariant
// holds.
func TestMarkAtClamp(t *testing.T) {
	tr := New(Options{})
	s := tr.Begin("", "c", "", 1)
	s.Mark(StageAdmit)
	s.MarkAt(StageQueue, -5) // before the span began
	var rec Rec
	s.Finish(OutcomeOK, &rec)
	if rec.Stages[StageQueue] != 0 {
		t.Fatalf("clamped stamp charged %dns", rec.Stages[StageQueue])
	}
	var sum int64
	for _, ns := range rec.Stages {
		sum += ns
	}
	if sum != rec.Wall {
		t.Fatalf("stages sum %d != wall %d after clamp", sum, rec.Wall)
	}
}

func TestFinishOnce(t *testing.T) {
	tr := New(Options{Sample: 1})
	s := tr.Begin("", "c", "", 1)
	if !s.Finish(OutcomeOK, nil) {
		t.Fatal("first finish not live")
	}
	if s.Finish(OutcomeOK, nil) {
		t.Fatal("second finish was live")
	}
	if got := tr.Stats().Finished; got != 1 {
		t.Fatalf("finished = %d, want 1", got)
	}
}

func TestElementTiming(t *testing.T) {
	tr := New(Options{Sample: 1})
	s := tr.Begin("", "c", "", 1)
	s.Element("deadline", 1500*time.Nanosecond)
	s.Element("cache", 300*time.Nanosecond)
	var rec Rec
	s.Finish(OutcomeOK, &rec)
	want := []ElementNs{{"deadline", 1500}, {"cache", 300}}
	if len(rec.Policy) != len(want) {
		t.Fatalf("policy = %+v", rec.Policy)
	}
	for i, e := range want {
		if rec.Policy[i] != e {
			t.Fatalf("policy[%d] = %+v, want %+v", i, rec.Policy[i], e)
		}
	}
}

func TestSampling(t *testing.T) {
	tr := New(Options{Sample: 3, Capacity: 16})
	for i := 0; i < 9; i++ {
		s := tr.Begin("", "c", "", i)
		s.Finish(OutcomeOK, nil)
	}
	st := tr.Stats()
	if st.Finished != 9 || st.Retained != 3 {
		t.Fatalf("stats = %+v, want 9 finished / 3 retained", st)
	}
	// Sample 0 retains nothing outside a capture window.
	tr0 := New(Options{Sample: 0, Capacity: 16})
	for i := 0; i < 5; i++ {
		s := tr0.Begin("", "c", "", i)
		s.Finish(OutcomeOK, nil)
	}
	if st := tr0.Stats(); st.Retained != 0 || st.Finished != 5 {
		t.Fatalf("sample-0 stats = %+v", st)
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := New(Options{Sample: 1, Capacity: 4})
	for i := 0; i < 10; i++ {
		s := tr.Begin("", "c", "", i)
		s.Finish(OutcomeOK, nil)
	}
	st := tr.Stats()
	if st.Retained != 4 || st.Dropped != 6 {
		t.Fatalf("stats = %+v, want 4 retained / 6 dropped", st)
	}
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		if want := uint64(7 + i); r.ID != want {
			t.Fatalf("records[%d].ID = %d, want %d (oldest first)", i, r.ID, want)
		}
	}
}

func TestCaptureWindow(t *testing.T) {
	tr := New(Options{Sample: 0, Capacity: 16})
	from, to := tr.CaptureFor(time.Minute)
	if to-from != int64(time.Minute) {
		t.Fatalf("window = [%d, %d]", from, to)
	}
	s := tr.Begin("", "c", "", 1)
	s.Finish(OutcomeOK, nil)
	if st := tr.Stats(); st.Retained != 1 {
		t.Fatalf("capture window did not retain: %+v", st)
	}
	// A shorter overlapping request for the window only extends it.
	if _, to2 := tr.CaptureFor(time.Second); to2 >= to {
		t.Fatalf("shorter window reported end %d >= %d", to2, to)
	}
	s2 := tr.Begin("", "c", "", 2)
	s2.Finish(OutcomeOK, nil)
	if st := tr.Stats(); st.Retained != 2 {
		t.Fatalf("extended window did not retain: %+v", st)
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := New(Options{SlowLog: time.Nanosecond, Logger: lg})
	s := tr.Begin("req-7", "bnrE-like", "cli", 42)
	s.Mark(StageAdmit)
	s.SetShard(2)
	s.Element("cache", time.Microsecond)
	s.Finish(OutcomeOK, nil)
	if got := tr.Stats().Slow; got != 1 {
		t.Fatalf("slow = %d, want 1", got)
	}
	line := buf.String()
	for _, want := range []string{
		`"msg":"slow request"`, `"request_id":"req-7"`, `"circuit":"bnrE-like"`,
		`"outcome":"ok"`, `"shard":2`, `"client":"cli"`, `"policy"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log missing %s in %s", want, line)
		}
	}
	// Below-threshold requests do not log.
	tr2 := New(Options{SlowLog: time.Hour, Logger: lg})
	s2 := tr2.Begin("", "c", "", 1)
	s2.Finish(OutcomeOK, nil)
	if got := tr2.Stats().Slow; got != 0 {
		t.Fatalf("fast request logged as slow")
	}
}

// chromeEvent is the slice of the trace-event format the structural
// checks need.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestWriteChrome pins the structural validity of the export: parseable
// JSON, balanced B/E per track, non-decreasing timestamps per track,
// and at least one request span carrying its id.
func TestWriteChrome(t *testing.T) {
	tr := New(Options{Sample: 1, Capacity: 16})
	// Two overlapping requests (stage stamps in the synthetic future)
	// must land on distinct lanes.
	s1 := tr.Begin("", "c", "", 1)
	base := tr.Now()
	s1.MarkAt(StageAdmit, base+1000)
	s1.MarkAt(StageRoute, base+10_000_000)
	s2 := tr.Begin("want-this-id", "c", "", 2)
	s2.MarkAt(StageRoute, base+5_000_000)
	s1.Finish(OutcomeOK, nil)
	s2.Finish(OutcomeOK, nil)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, 0, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}

	depth := map[int]int{}
	lastTS := map[int]float64{}
	requests := 0
	reqTids := map[int]bool{}
	sawAdopted := false
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			depth[e.Tid]++
		case "E":
			depth[e.Tid]--
			if depth[e.Tid] < 0 {
				t.Fatalf("unbalanced E on tid %d", e.Tid)
			}
		default:
			continue
		}
		if e.Ts < lastTS[e.Tid] {
			t.Fatalf("timestamps regress on tid %d: %v < %v", e.Tid, e.Ts, lastTS[e.Tid])
		}
		lastTS[e.Tid] = e.Ts
		if e.Ph == "B" && e.Name == "request" {
			requests++
			reqTids[e.Tid] = true
			if e.Cat != "request" {
				t.Errorf("request span cat = %q", e.Cat)
			}
			if _, ok := e.Args["request_id"]; !ok {
				t.Errorf("request span missing request_id arg: %+v", e.Args)
			}
			if e.Args["label"] == "want-this-id" {
				sawAdopted = true
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d ends at depth %d", tid, d)
		}
	}
	if requests != 2 {
		t.Fatalf("request spans = %d, want 2", requests)
	}
	if len(reqTids) != 2 {
		t.Fatalf("overlapping requests share a lane: tids %v", reqTids)
	}
	if !sawAdopted {
		t.Fatal("adopted id label missing from export")
	}
}

// TestWriteChromeWindow pins the [from, to] filter: records finishing
// outside the window are excluded.
func TestWriteChromeWindow(t *testing.T) {
	tr := New(Options{Sample: 1, Capacity: 16})
	s := tr.Begin("", "c", "", 1)
	s.Finish(OutcomeOK, nil)
	end := tr.Now()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, end+1_000_000, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"name":"request"`)) {
		t.Fatal("record outside the window was exported")
	}
}

// TestDisabledZeroAlloc pins the nil-receiver cost contract at the unit
// level; the benchmark pins the ns/op side.
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Begin("", "c", "cl", 1)
		s.Mark(StageAdmit)
		s.MarkAt(StageQueue, 0)
		s.Element("cache", time.Microsecond)
		s.SetShard(1)
		s.Finish(OutcomeOK, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", allocs)
	}
}

// TestUnsampledZeroAlloc pins the enabled-but-unsampled fast path: no
// retention, no client id, no policy detail — no allocations.
func TestUnsampledZeroAlloc(t *testing.T) {
	tr := New(Options{Sample: 0})
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Begin("", "c", "cl", 1)
		s.Mark(StageAdmit)
		s.Mark(StageQueue)
		s.Finish(OutcomeOK, nil)
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates %.1f/op, want 0", allocs)
	}
}
