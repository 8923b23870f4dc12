package harness

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// stallingServer answers in 1 ms, except that from the moment request
// stallAt arrives every request in flight or arriving waits until the
// stall is over — a server-wide pause, not one slow request.
type stallingServer struct {
	mu      sync.Mutex
	stallAt int
	stall   time.Duration
	until   time.Time
}

func (s *stallingServer) serve(i int) {
	s.mu.Lock()
	if i == s.stallAt {
		s.until = time.Now().Add(s.stall)
	}
	until := s.until
	s.mu.Unlock()
	time.Sleep(time.Until(until))
	time.Sleep(time.Millisecond)
}

// TestOpenLoopChargesStallFromDueTime drives the open loop against a
// server that freezes for 200 ms. Every arrival that fell due during the
// freeze must be charged its wait from its due time — with coordinated
// omission only the two in-flight requests would look slow — while the
// generator's own lateness stays small, because a worker held up by the
// server is not the generator running late.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const rate, stall = 300, 200 * time.Millisecond
	srv := &stallingServer{stallAt: 90, stall: stall}
	loop := OpenLoop{Rate: rate, Workers: 2, Rounds: 2, RoundLen: 500 * time.Millisecond}
	rec := loop.Run(func(_, i int) Outcome {
		srv.serve(i)
		return Good
	})
	if rec.Tally.Sent != 300 || rec.Tally.OK != 300 {
		t.Fatalf("sent %d ok %d, want 300 of each: the schedule must not shrink under a stall", rec.Tally.Sent, rec.Tally.OK)
	}
	slow := 0
	for _, l := range rec.LatUS() {
		if l > 50e3 {
			slow++
		}
	}
	// Arrivals due in the first 150 ms of the freeze wait more than 50 ms:
	// 45 at 300/s. Allow scheduling slop either side.
	if slow < 35 || slow > 60 {
		t.Errorf("%d requests slower than 50 ms, want about 45: latency is not charged from the due time", slow)
	}
	lat := Sorted(rec.LatUS())
	if max := lat[len(lat)-1]; max < 190e3 || max > 400e3 {
		t.Errorf("slowest request %v us, want about the 200 ms stall", max)
	}
	late, _ := Percentile(Sorted(rec.LateUS), 99)
	if late > 20e3 {
		t.Errorf("generator lateness p99 %v us, want well under the stall: lateness must be sampled only when the worker was free", late)
	}
	if len(rec.LateUS) >= rec.Tally.Sent {
		t.Errorf("%d lateness samples for %d arrivals: backlogged arrivals must not be sampled", len(rec.LateUS), rec.Tally.Sent)
	}
	// The stall sits in round 0 (arrival 90 is due at 300 ms); round 1's
	// median is untouched by it.
	p50 := rec.PerRound(func(r Round) float64 {
		v, _ := Percentile(Sorted(r.LatUS), 50)
		return v
	})
	if len(p50) != 2 || p50[1] > 20e3 {
		t.Errorf("per-round p50 %v: the round after the stall should be clean", p50)
	}
}

// TestClosedLoopRounds: rounds close at operation boundaries, so a long
// operation makes a round of its own with exact length, and boundaries
// it ran across yield empty rounds that PerRound skips.
func TestClosedLoopRounds(t *testing.T) {
	var cpu time.Duration
	loop := ClosedLoop{Rounds: 4, RoundLen: 50 * time.Millisecond, CPU: func() time.Duration { return cpu }}
	rec := loop.Run(func(i int) Outcome {
		d := 10 * time.Millisecond
		if i == 2 {
			d = 120 * time.Millisecond // spans two boundaries
		}
		time.Sleep(d)
		cpu += d
		if i == 0 {
			return Shed
		}
		return Good
	})
	if rec.Tally.Shed != 1 || rec.Tally.Failed() != 1 {
		t.Errorf("tally %+v, want one shed", rec.Tally)
	}
	total, ops := 0.0, 0
	for _, r := range rec.Rounds {
		total += r.Seconds
		ops += r.OK
		if r.OK > 0 && (r.CPUSeconds <= 0 || r.CPUSeconds > r.Seconds) {
			t.Errorf("round %+v: CPU must be positive and, here, at most the wall time", r)
		}
	}
	if ops != rec.Tally.OK {
		t.Errorf("rounds hold %d ops, tally %d", ops, rec.Tally.OK)
	}
	if total < 0.2 || total > 0.5 {
		t.Errorf("rounds cover %v s, want the 0.2 s window plus at most one operation", total)
	}
	rates := rec.PerRound(func(r Round) float64 { return float64(r.OK) / r.Seconds })
	if len(rates) == len(rec.Rounds) {
		t.Errorf("the 120 ms operation crossed a boundary; an empty round should have been skipped (%d rounds)", len(rec.Rounds))
	}
	if len(rec.LateUS) != rec.Tally.Sent {
		t.Errorf("%d turnaround samples for %d operations", len(rec.LateUS), rec.Tally.Sent)
	}

	// A secondary stream lands in rounds by completion time; anything
	// outside the window is dropped.
	rec.AddOther([]OtherSample{
		{End: rec.bounds[0].Add(-time.Millisecond), Out: Good},
		{End: rec.bounds[0].Add(time.Millisecond), Lat: time.Millisecond, Out: Good},
		{End: rec.bounds[0].Add(2 * time.Millisecond), Out: Expired},
		{End: rec.bounds[len(rec.bounds)-1].Add(time.Millisecond), Out: Good},
	})
	if rec.Other.Sent != 2 || rec.Other.OK != 1 || rec.Other.Expired != 1 || rec.Rounds[0].OtherOK != 1 {
		t.Errorf("secondary tally %+v, round 0 %+v: want 2 in window, 1 ok in round 0", rec.Other, rec.Rounds[0])
	}
}

// TestChromeTrace: spans of one request share an id, children name
// their parent, and the file is the Chrome trace-event format.
func TestChromeTrace(t *testing.T) {
	var nilRec *Recorder
	nilRec.Add(Span{Name: "dropped"}) // a nil recorder records nothing and must not panic
	rec := &Recorder{}
	t0 := time.Now()
	rec.Add(Span{Name: "route", Layer: "client", ID: "r1", Start: t0, Dur: 3 * time.Millisecond})
	rec.Add(Span{Name: "queue", Layer: "locusd", ID: "r1", Parent: "r1", Start: t0.Add(time.Millisecond), Dur: time.Millisecond})
	rec.Time("route", "probe", func() {})
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			TS, Dur       float64
			TID           int
			Args          map[string]string
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	parent, child := doc.TraceEvents[0], doc.TraceEvents[1]
	if parent.Ph != "X" || parent.TS != 0 || parent.Dur != 3000 || child.TS != 1000 {
		t.Errorf("events %+v %+v: want complete events in microseconds from the earliest span", parent, child)
	}
	if child.Args["id"] != "r1" || child.Args["parent"] != "r1" || child.TID == parent.TID {
		t.Errorf("child %+v: want the request id, its parent, and its own layer's track", child)
	}
}
