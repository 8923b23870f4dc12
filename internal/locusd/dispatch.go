package locusd

import (
	"fmt"
	"slices"
	"time"

	"locusroute/internal/policy"
	"locusroute/internal/reqtrace"
	"locusroute/internal/route"
)

// This file is the dispatch stage of the request path: how admitted
// requests become batches against a circuit's serving array. There is one
// discipline: each circuit has one policy.EDFQueue, drained by its shard
// loops (Config.Shards of them). What the queue is keyed on is the only
// thing the scheduler changes:
//
//   - Scheduler off (default): keyed on arrival time, so a batch pops in
//     arrival order — FIFO is EDF with arrival as the criticality.
//   - policy.Sched enabled: keyed on the request deadline, so a batch
//     pops earliest-deadline-first, and a full admission gate preempts
//     the slackest queued request instead of shedding the arrival
//     (preempt).

// shardLoop turns the circuit's queue into batches without ever waiting
// for one to grow: it sleeps only on an empty queue, takes a pool slot,
// and inside the slot pops up to MaxBatch of whatever is queued at that
// instant and evaluates it. An idle loop serves a lone arrival at once;
// busy loops (or a full pool) let arrivals pile up and the next pop takes
// them as one batch — batching comes from service time, not a timer.
// Popping last keeps every request not yet being evaluated in the queue,
// where preempt can see it, and PopBatch returns queue order, so the most
// critical (or earliest) work commits first. id is the loop's number,
// reported as the response's shard.
func (s *Server) shardLoop(sc *servedCircuit, id int) {
	defer s.loops.Done()
	q := sc.queue
	evaluate := func() {
		batch := q.PopBatch(s.cfg.MaxBatch)
		if len(batch) == 0 {
			// A sibling consumed the wave, or preempt evicted it, while
			// this loop waited for its slot.
			return
		}
		s.chain.Sched().NoteBatch()
		s.process(sc, id, batch)
	}
	for {
		if q.Len() == 0 {
			// Every wake re-checks the depth: a signal can outlive its
			// push (a sibling or an earlier batch took the entry).
			select {
			case <-q.C():
			case <-sc.stop:
				// Evicted: EvictCircuit waited out the circuit's in-flight
				// requests before closing stop, so nothing is queued.
				return
			case <-s.stop:
				// Drain: Close waited out every admitted request before
				// closing stop, so the queue cannot grow again; an entry
				// whose caller gave up is still popped on the next lap.
				if q.Len() == 0 {
					return
				}
			}
			continue
		}
		s.cfg.Pool.Run(evaluate)
	}
}

// preempt implements least-critical-first shedding: with the gate full,
// find the queued request with the slackest deadline across all served
// circuits and, if it is strictly less critical than the arrival,
// shed it (429 to its caller) and take its admission slot. Returns
// whether a slot was obtained; false falls back to shedding the
// arrival, which is then itself the least critical request present.
func (s *Server) preempt(deadline time.Time) bool {
	sched := s.chain.Sched()
	if sched == nil {
		return false
	}
	// Two laps: when the victim's slot cannot be transferred directly
	// (its own goroutine released it already), the fallback TryEnter
	// races concurrent arrivals; one retry keeps the preemption useful
	// under that race without spinning.
	for lap := 0; lap < 2; lap++ {
		var victimQ *policy.EDFQueue
		var slackest time.Time
		for _, sc := range s.served() {
			if d, ok := sc.queue.SlackestDeadline(); ok {
				if victimQ == nil || policy.DeadlineLess(slackest, d) {
					victimQ, slackest = sc.queue, d
				}
			}
		}
		if victimQ == nil {
			return false
		}
		it := victimQ.EvictSlackest(deadline)
		if it == nil {
			// The arrival is the least critical request present.
			return false
		}
		victim := it.Value.(*pending)
		// Winning the gateHeld CAS transfers the victim's admission slot
		// straight to the arrival: it never returns to the gate, so a
		// concurrent arrival cannot steal it in between and force a
		// second eviction for one capacity conflict.
		transferred := victim.gateHeld.CompareAndSwap(true, false)
		if victim.ctx.Err() == nil {
			sched.NoteEviction()
			s.met.mu.Lock()
			s.met.shed++
			s.met.evicted++
			s.met.mu.Unlock()
			victim.done <- outcome{oc: reqtrace.OutcomeEvicted, err: fmt.Errorf("%w (slack %v lost to a tighter deadline)",
				policy.ErrEvicted, time.Until(it.Deadline).Round(time.Millisecond))}
		}
		// else: the victim's caller already gave up; its own goroutine
		// counts the request as expired, and bumping shed/evicted here
		// would double-count it.
		if transferred || s.gate.TryEnter() {
			return true
		}
	}
	return false
}

// process evaluates one batch against the circuit's serving array, under
// the read lock, or under the write lock when a member commits; the
// routing scratch is borrowed from route's grid-keyed pool for the batch
// and returned afterwards, so the per-request cost stays at the
// reused-scratch allocation floor (route.TestScratchPoolAllocs).
// The batch arrives in queue order — deadline order under the scheduler,
// arrival order without it — and BatchIndex records that commit order.
func (s *Server) process(sc *servedCircuit, shard int, batch []*policy.Item) {
	began := time.Now()
	if slices.ContainsFunc(batch, commits) {
		sc.mu.Lock()
		defer sc.mu.Unlock()
	} else {
		sc.mu.RLock()
		defer sc.mu.RUnlock()
	}
	view := route.ArrayView{A: sc.arr}
	scratch := route.GetScratch(sc.grid)
	defer route.PutScratch(scratch)
	tr := s.cfg.Tracer
	batchStart := tr.Now() // 0 when tracing is disabled
	for i, it := range batch {
		p := it.Value.(*pending)
		if p.ctx.Err() != nil {
			// The waiter usually counted this expiry already (ctx.Done
			// fires for it too); countExpired keeps the tally at one.
			s.countExpired(p)
			p.done <- outcome{oc: reqtrace.OutcomeExpired, err: ErrDeadline}
			continue
		}
		wait := time.Since(p.enqueued)
		// Stage stamps ride the done channel back to the waiter, who owns
		// the span (tr.Now is 0 with tracing disabled). batchStart is
		// shared by the whole batch — request i's batch stage is the time
		// earlier members spent routing.
		t := [4]int64{batchStart, tr.Now()}
		ev := scratch.RouteWire(view, &p.req.Wire, s.cfg.Router)
		t[2] = tr.Now()
		t[3] = t[2] // no commit: the commit stage charges zero
		if p.req.Commit {
			route.Commit(view, ev.Path)
			sc.epoch.Add(1)
			t[3] = tr.Now()
		}
		s.met.mu.Lock()
		s.met.served++
		if p.req.Commit {
			s.met.committed++
		}
		s.met.batchSize.Observe(int64(len(batch)))
		s.met.waitUs.Observe(wait.Microseconds())
		s.met.routeCost.Observe(ev.Cost)
		s.met.mu.Unlock()
		p.done <- outcome{resp: RouteResponse{
			Circuit:       p.req.Circuit,
			Shard:         shard,
			WireID:        p.req.Wire.ID,
			Cost:          ev.Cost,
			PathCells:     ev.Path.Len(),
			CellsExamined: ev.CellsExamined,
			BatchSize:     len(batch),
			BatchIndex:    i,
			Committed:     p.req.Commit,
			WaitMicros:    wait.Microseconds(),
		}, t: t}
	}
	// Two clock reads per batch: RetryAfterSeconds' and /v1/metrics' input.
	s.met.mu.Lock()
	s.met.batches++
	s.met.evalNs += time.Since(began).Nanoseconds()
	s.met.mu.Unlock()
}

// commits reports whether a queued request commits its path.
func commits(it *policy.Item) bool { return it.Value.(*pending).req.Commit }

// RetryAfterSeconds estimates the drain time of the current backlog —
// the Retry-After a 429 carries on either transport. The gate's
// in-flight count is the backlog, the measured mean evaluation time per
// request is what retiring one costs, and min(shard loops, pool workers)
// evaluators retire them in parallel. The estimate is rounded up to
// whole seconds (the header's unit), minimum 1 — which is also the
// answer of a server that has evaluated nothing yet.
func (s *Server) RetryAfterSeconds() int {
	s.mu.RLock()
	evaluators := int64(len(s.circuits) * s.cfg.Shards)
	s.mu.RUnlock()
	if w := int64(s.cfg.Pool.Workers()); w > 0 && w < evaluators {
		evaluators = w
	}
	s.met.mu.Lock()
	perRequest := s.met.evalNs / max(s.met.served, 1)
	s.met.mu.Unlock()
	return ceilSeconds(time.Duration(int64(s.gate.InFlight()) * perRequest / max(evaluators, 1)))
}
