package harness

import (
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies one operation. Everything but Good counts as
// failed, and a failed operation has no latency: it misses any limit.
type Outcome uint8

const (
	Good    Outcome = iota
	Shed            // refused at admission (429-class)
	Expired         // deadline passed server-side (504-class)
	Errored         // transport failure or any other non-OK status
	Wrong           // answered, but the answer failed its correctness check
)

// Tally counts operations of one kind over the measured window.
type Tally struct {
	Sent, OK, Shed, Expired, Errors, Wrong int
}

func (t *Tally) add(o Outcome) {
	t.Sent++
	switch o {
	case Good:
		t.OK++
	case Shed:
		t.Shed++
	case Expired:
		t.Expired++
	case Wrong:
		t.Wrong++
	default:
		t.Errors++
	}
}

// Failed is every operation that did not succeed.
func (t Tally) Failed() int { return t.Sent - t.OK }

// Round is one slice of the measured window. A latency metric is the
// median over rounds of the round's percentile, so one sandbox stall
// spoils one round, not the run.
type Round struct {
	Seconds    float64   // wall length of the round
	LatUS      []float64 // latencies of the primary ops that succeeded
	OK         int       // primary ops that succeeded
	OtherOK    int       // secondary ops that succeeded (serve_mixed reads)
	CPUSeconds float64   // CPU the program under test used in the round
}

// Recording is what a load loop observed over the measured window.
type Recording struct {
	Rounds []Round
	Tally  Tally // primary op kind
	// LateUS is how late the generator itself ran. Open loop: wake-up
	// overshoot past the due time, sampled only when the worker was free
	// before the arrival fell due (a worker held up by the server is the
	// server's lateness, and is charged to latency instead). Closed
	// loop: the gap between one completion and the next start.
	LateUS []float64

	Other      Tally     // secondary op kind, folded in by AddOther
	OtherLatUS []float64 // successful secondary latencies

	bounds []time.Time // round boundaries, len(Rounds)+1
}

// OpenLoop fires arrivals on a fixed schedule whatever the server does:
// arrival i is due at start + i/Rate, and its latency is timed from
// that due time, so a stall is charged to every arrival it delayed (no
// coordinated omission). Workers each own one connection and pull the
// next arrival index when free.
type OpenLoop struct {
	Rate     float64 // arrivals per second
	Workers  int
	Warmup   time.Duration // arrivals due before this are sent, not recorded
	Rounds   int
	RoundLen time.Duration
	// CPU reports the cumulative CPU time of the program under test; it
	// is sampled at round boundaries. Nil records no CPU.
	CPU func() time.Duration
}

type openSample struct {
	due     time.Time
	lat     time.Duration
	late    time.Duration
	hasLate bool
	out     Outcome
}

// Run drives do(worker, i) for every arrival and returns the recording
// of the measured window. do must be safe to call from Workers
// goroutines at once, each with its own worker index.
func (o OpenLoop) Run(do func(worker, i int) Outcome) *Recording {
	interval := float64(time.Second) / o.Rate
	window := time.Duration(o.Rounds) * o.RoundLen
	n := int(float64(o.Warmup+window) / interval)
	start := time.Now().Add(10 * time.Millisecond)
	measure := start.Add(o.Warmup)

	cpu := make([]time.Duration, o.Rounds+1)
	var sampler sync.WaitGroup
	if o.CPU != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for k := range cpu {
				time.Sleep(time.Until(measure.Add(time.Duration(k) * o.RoundLen)))
				cpu[k] = o.CPU()
			}
		}()
	}

	var next atomic.Int64
	perWorker := make([][]openSample, o.Workers)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				s := openSample{due: due}
				if time.Until(due) > 0 {
					sleepUntil(due)
					s.late, s.hasLate = time.Since(due), true
				}
				s.out = do(w, i)
				s.lat = time.Since(due)
				if !due.Before(measure) {
					perWorker[w] = append(perWorker[w], s)
				}
			}
		}(w)
	}
	wg.Wait()
	sampler.Wait()

	rec := &Recording{Rounds: make([]Round, o.Rounds)}
	for k := 0; k <= o.Rounds; k++ {
		rec.bounds = append(rec.bounds, measure.Add(time.Duration(k)*o.RoundLen))
	}
	for k := range rec.Rounds {
		rec.Rounds[k].CPUSeconds = (cpu[k+1] - cpu[k]).Seconds()
	}
	for _, samples := range perWorker {
		for _, s := range samples {
			k := int(s.due.Sub(measure) / o.RoundLen)
			if k >= o.Rounds {
				continue
			}
			rec.Tally.add(s.out)
			if s.hasLate {
				rec.LateUS = append(rec.LateUS, us(s.late))
			}
			// A round lasts from its boundary to the last completion of
			// the arrivals due in it, so a backlog that runs past the
			// schedule lowers the achieved rate instead of hiding.
			r := &rec.Rounds[k]
			if end := s.due.Add(s.lat).Sub(rec.bounds[k]).Seconds(); end > r.Seconds {
				r.Seconds = end
			}
			if s.out == Good {
				r.OK++
				r.LatUS = append(r.LatUS, us(s.lat))
			}
		}
	}
	return rec
}

// spinMargin is how long before a due time sleepUntil stops sleeping and
// spins. time.Sleep overshoots by ~230 µs at the median and ~450 µs at
// p99 on the 2-core sandbox; latency is charged from the due time, so
// without the spin every open-loop request would carry the generator's
// overshoot as if it were the server's. At 300 arrivals/s the spin costs
// under a tenth of one core.
const spinMargin = 600 * time.Microsecond

func sleepUntil(due time.Time) {
	if wait := time.Until(due) - spinMargin; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
	}
}

// ClosedLoop is one caller issuing operations back to back: the next
// starts when the previous completes, so a slower system receives less
// load. A round closes at the first completion at or past its boundary,
// which keeps each round's length and CPU exact however long one
// operation runs — a 5 s operation makes a round of its own.
type ClosedLoop struct {
	Warmup   time.Duration // operations run, unrecorded, until this has passed
	Rounds   int
	RoundLen time.Duration
	CPU      func() time.Duration
}

// Run drives do(i) on the calling goroutine and returns the recording.
func (c ClosedLoop) Run(do func(i int) Outcome) *Recording {
	i := 0
	for warmEnd := time.Now().Add(c.Warmup); time.Now().Before(warmEnd); i++ {
		do(i)
	}
	cpuNow := func() time.Duration {
		if c.CPU == nil {
			return 0
		}
		return c.CPU()
	}
	rec := &Recording{}
	measure := time.Now()
	window := time.Duration(c.Rounds) * c.RoundLen
	rec.bounds = append(rec.bounds, measure)
	roundStart, roundCPU := measure, cpuNow()
	var cur Round
	prevEnd := measure
	for ; ; i++ {
		t0 := time.Now()
		out := do(i)
		t1 := time.Now()
		rec.LateUS = append(rec.LateUS, us(t0.Sub(prevEnd)))
		prevEnd = t1
		rec.Tally.add(out)
		if out == Good {
			cur.OK++
			cur.LatUS = append(cur.LatUS, us(t1.Sub(t0)))
		}
		elapsed := t1.Sub(measure)
		if elapsed < time.Duration(len(rec.Rounds)+1)*c.RoundLen && elapsed < window {
			continue
		}
		now := cpuNow()
		cur.Seconds = t1.Sub(roundStart).Seconds()
		cur.CPUSeconds = (now - roundCPU).Seconds()
		rec.Rounds = append(rec.Rounds, cur)
		rec.bounds = append(rec.bounds, t1)
		cur, roundStart, roundCPU = Round{}, t1, now
		if elapsed >= window {
			return rec
		}
		// A long operation may have crossed several boundaries; the next
		// round ends at the first boundary still ahead.
		for time.Duration(len(rec.Rounds)+1)*c.RoundLen <= elapsed {
			rec.Rounds = append(rec.Rounds, Round{})
			rec.bounds = append(rec.bounds, t1)
		}
	}
}

// OtherSample is one secondary operation observed beside a primary
// loop.
type OtherSample struct {
	End time.Time
	Lat time.Duration
	Out Outcome
}

// Background runs do back to back on its own goroutine until the
// returned stop function is called; stop waits for the goroutine and
// returns what it observed.
func Background(do func(i int) Outcome) (stop func() []OtherSample) {
	var halt atomic.Bool
	done := make(chan []OtherSample, 1)
	go func() {
		var out []OtherSample
		for i := 0; !halt.Load(); i++ {
			t0 := time.Now()
			o := do(i)
			t1 := time.Now()
			out = append(out, OtherSample{End: t1, Lat: t1.Sub(t0), Out: o})
		}
		done <- out
	}()
	return func() []OtherSample {
		halt.Store(true)
		return <-done
	}
}

// AddOther folds secondary operations into the recording: each lands in
// the round whose interval holds its completion; those outside the
// measured window are dropped.
func (r *Recording) AddOther(samples []OtherSample) {
	for _, s := range samples {
		for k := range r.Rounds {
			if s.End.Before(r.bounds[k]) || !s.End.Before(r.bounds[k+1]) {
				continue
			}
			r.Other.add(s.Out)
			if s.Out == Good {
				r.Rounds[k].OtherOK++
				r.OtherLatUS = append(r.OtherLatUS, us(s.Lat))
			}
			break
		}
	}
}

// LatUS is every successful primary latency of the window, for the
// tail percentiles a single round is too short to support.
func (r *Recording) LatUS() []float64 {
	var out []float64
	for _, rd := range r.Rounds {
		out = append(out, rd.LatUS...)
	}
	return out
}

// PerRound maps every round that completed at least one primary op to a
// value; empty rounds (a long op spanning several boundaries) are
// skipped.
func (r *Recording) PerRound(f func(Round) float64) []float64 {
	var out []float64
	for _, rd := range r.Rounds {
		if rd.OK > 0 {
			out = append(out, f(rd))
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
