package sm

import (
	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/route"
	"locusroute/internal/sim"
	"locusroute/internal/trace"
)

// wordBytes is the size of one cost array cell in shared memory.
const wordBytes = 4

// addrOf maps a cell to its shared memory byte address. The array is laid
// out column-major: the cost entries of all channels of one routing grid
// column are contiguous (Channels * 4 bytes per column). This is the
// natural layout for a channel router — choosing a jog column reads one
// column's channel occupancies together — and it is what gives the shared
// memory version the paper's strong traffic growth with cache line size:
// horizontal path runs stride a whole column apart in memory, so their
// writes and rereads never batch into one line, and every line brought in
// carries neighbouring-channel words that are often never used.
func addrOf(grid geom.Grid, c geom.Point) uint64 {
	return uint64(c.X*grid.Channels+c.Y) * wordBytes
}

// counterAddr is the shared address of the distributed-loop wire counter,
// placed far above the cost array so it never shares a cache line with
// it.
const counterAddr = 1 << 40

// tracedView is one logical process's traced access to the shared array.
// The kernel costs candidates on the array itself and tells the view,
// the scratch's observer while the process routes, each candidate's
// straight runs (ReadRun), and a run of reads enters
// the trace as one trace.Run. Rip-up writes through the view (AddCell)
// update the shared array immediately — commits use deferred
// application, see routeOneWire.
type tracedView struct {
	p *proc
}

// ReadRun records the n reads from (x, y) on, dx and dy apart: n
// references CellEval apart, the first one CellEval after the clock, at
// addresses one column (dx) or one channel (dy) apart.
func (v tracedView) ReadRun(x, y, dx, dy, n int) {
	p := v.p
	g := p.r.shared.Grid()
	eval := p.r.cfg.Perf.CellEval
	p.r.tr.AppendRun(trace.Run{
		T: p.clock + eval, DT: eval, Proc: p.id,
		Addr: addrOf(g, geom.Pt(x, y)), Stride: int64(dx*g.Channels+dy) * wordBytes,
		N: n, Op: trace.Read,
	})
	p.clock += sim.Time(n) * eval
	p.r.refs[trace.Read] += n
}

func (v tracedView) AddCell(i int, d int32) {
	p, g := v.p, v.p.r.shared.Grid()
	p.ref(p.r.cfg.Perf.CellWrite, addrOf(g, g.Point(i)), trace.Write)
	p.r.shared.Cells()[i] += d
}

// pendingCommit is one commit increment that becomes visible to other
// processes at its write time: commits apply cell by cell, as the real
// program's increment loop does, so a process routing concurrently sees
// exactly the prefix of a neighbour's in-flight wire that has been
// written so far.
type pendingCommit struct {
	at   sim.Time
	cell int32 // row-major index, as in the path
}

// tracedRunner is the shared state of one traced execution.
type tracedRunner struct {
	cfg    Config
	circ   *circuit.Circuit
	shared *costarray.CostArray
	// tr merges the processes' reference streams into the caller's sink.
	tr    *trace.Merger
	procs []*proc
	// scratch is the processes' one routing kernel state: the multiplexer
	// runs one process at a time, and a routing never spans two turns.
	scratch *route.Scratch
	// refs counts the references emitted, by trace.Op.
	refs [2]int
	// lastCost[w] is the path cost of wire w at its latest routing.
	lastCost []int64
	paths    []route.Path
	cells    int64
	wires    int
}

// proc is one logical process.
type proc struct {
	id    int
	r     *tracedRunner
	clock sim.Time
	// work is the wire list for static order; cursor indexes it.
	work   []int
	cursor int
	// pend[pendHead:] are this process's commit writes not yet visible
	// in the shared array, in write-time order (its clock only advances).
	pend     []pendingCommit
	pendHead int
}

// ref charges cost to p's clock and emits one shared reference at the
// new time. The clock never moves backwards, which is what makes p's
// references an already-sorted stream (see trace.Merger).
func (p *proc) ref(cost sim.Time, addr uint64, op trace.Op) {
	p.clock += cost
	p.r.tr.Append(trace.Ref{T: p.clock, Proc: p.id, Addr: addr, Op: op})
	p.r.refs[op]++
}

// applyPending makes visible every commit write at or before t. The
// increments commute, so walking the processes' queues one after another
// leaves the same array as applying them in global time order.
func (r *tracedRunner) applyPending(t sim.Time) {
	cells := r.shared.Cells()
	for _, p := range r.procs {
		for p.pendHead < len(p.pend) && p.pend[p.pendHead].at <= t {
			cells[p.pend[p.pendHead].cell]++
			p.pendHead++
		}
		if p.pendHead == len(p.pend) {
			p.pend, p.pendHead = p.pend[:0], 0
		}
	}
}

// routeOneWire performs one complete wire routing for process p at its
// current clock: rip-up of the previous path (immediately visible, as in
// the real program where decrements happen in place), evaluation against
// the shared array (which excludes other processes' in-flight commits),
// and a commit that becomes visible when the routing completes. The new
// path reuses the storage of the one it replaces.
func (p *proc) routeOneWire(wi int, iter int) {
	r := p.r
	w := &r.circ.Wires[wi]
	view := tracedView{p: p}
	p.clock += r.cfg.Perf.WireOverhead

	if iter > 0 {
		route.RipUp(view, r.paths[wi])
	}
	r.scratch.Observe(view)
	ev := r.scratch.RerouteWire(route.ArrayView{A: r.shared}, w, r.cfg.Router, r.paths[wi])
	// Occupancy contribution: the deduplicated path cost against the
	// shared array at routing time (a metric computation, not program
	// memory traffic, so it is not traced).
	cost := route.PathCost(r.shared, ev.Path)
	// Trace the commit writes at their natural times; each write becomes
	// visible to *other* processes at that time (per-cell pending
	// application), not retroactively before it happened.
	g := r.shared.Grid()
	for _, i := range ev.Path.Cells {
		p.ref(r.cfg.Perf.CellWrite, addrOf(g, g.Point(int(i))), trace.Write)
		p.pend = append(p.pend, pendingCommit{at: p.clock, cell: i})
	}

	r.paths[wi] = ev.Path
	r.lastCost[wi] = cost
	r.cells += int64(ev.CellsExamined)
	r.wires++
}

// fetchWire returns the next wire for p in iteration iter, or -1 when the
// iteration's work is exhausted. In dynamic order it models the
// distributed loop: a read-modify-write of the shared counter.
func (p *proc) fetchWire(counter *int, limit int) int {
	r := p.r
	if r.cfg.Order == Static {
		if p.cursor >= len(p.work) {
			return -1
		}
		wi := p.work[p.cursor]
		p.cursor++
		return wi
	}
	// Distributed loop: the counter is a shared word.
	p.ref(r.cfg.Perf.CellEval, counterAddr, trace.Read)
	if *counter >= limit {
		return -1
	}
	wi := *counter
	*counter++
	p.ref(r.cfg.Perf.CellWrite, counterAddr, trace.Write)
	return wi
}

// RunTraced executes the multiplexed shared memory router, handing the
// interleaved shared reference trace to sink in (time, processor) order
// while it runs: a reference is emitted as soon as no process can still
// produce an earlier one, so the trace is never resident as a whole. Each
// sink call carries the next batch of references, valid only during the
// call (see trace.NewMerger). A caller that wants the trace kept passes a
// trace.Trace's AppendBatch.
func RunTraced(circ *circuit.Circuit, cfg Config, sink func([]trace.Ref)) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(circ); err != nil {
		return Result{}, err
	}
	r := &tracedRunner{
		cfg:      cfg,
		circ:     circ,
		shared:   costarray.New(circ.Grid),
		tr:       trace.NewMerger(cfg.Procs, sink),
		procs:    make([]*proc, cfg.Procs),
		scratch:  route.GetScratch(circ.Grid),
		lastCost: make([]int64, len(circ.Wires)),
		paths:    make([]route.Path, len(circ.Wires)),
	}
	procs := r.procs
	for i := range procs {
		procs[i] = &proc{id: i, r: r}
		if cfg.Order == Static {
			procs[i].work = cfg.Assignment.WiresOf(i)
		}
	}

	iterations := cfg.Router.Iterations
	if iterations <= 0 {
		iterations = 1
	}
	for iter := 0; iter < iterations; iter++ {
		counter := 0
		for i := range procs {
			procs[i].cursor = 0
		}
		active := make([]bool, cfg.Procs)
		for i := range active {
			active[i] = true
		}
		remaining := cfg.Procs
		for remaining > 0 {
			// Pick the active process with the smallest clock (ties by
			// id): the fine-grain multiplexing of the tracer.
			best := -1
			for i, a := range active {
				if a && (best < 0 || procs[i].clock < procs[best].clock) {
					best = i
				}
			}
			p := procs[best]
			r.applyPending(p.clock)
			// Every active process will emit at or after its own clock,
			// hence at or after p's, and the finished ones emit nothing
			// more before the barrier lifts them to the maximum: all
			// references below p.clock are final.
			r.tr.Drain(p.clock)
			wi := p.fetchWire(&counter, len(circ.Wires))
			if wi < 0 {
				active[best] = false
				remaining--
				continue
			}
			p.routeOneWire(wi, iter)
		}
		// Barrier: everyone waits for the slowest process.
		var maxClock sim.Time
		for _, p := range procs {
			if p.clock > maxClock {
				maxClock = p.clock
			}
		}
		for _, p := range procs {
			p.clock = maxClock
		}
		r.applyPending(maxClock)
	}
	r.tr.Flush()
	route.PutScratch(r.scratch)

	var res Result
	res.Final = r.shared
	res.CircuitHeight = r.shared.CircuitHeight()
	for _, c := range r.lastCost {
		res.Occupancy += c
	}
	for _, p := range procs {
		if p.clock > res.Span {
			res.Span = p.clock
		}
	}
	res.Reads, res.Writes = r.refs[trace.Read], r.refs[trace.Write]
	res.PeakBuffered = r.tr.Peak()
	res.WiresRouted = r.wires
	res.CellsExamined = r.cells
	return res, nil
}
