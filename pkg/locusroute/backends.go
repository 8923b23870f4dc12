package locusroute

import (
	"context"
	"time"

	"locusroute/internal/costarray"
	"locusroute/internal/mp"
	"locusroute/internal/obs"
	"locusroute/internal/par"
	"locusroute/internal/part"
	"locusroute/internal/route"
	"locusroute/internal/sm"
	"locusroute/internal/trace"
)

// NewSequential constructs the uniprocessor reference router: one
// consistent cost array, the baseline both parallel paradigms are
// measured against.
func NewSequential(opts ...Option) (Backend, error) {
	c := apply(opts)
	if err := c.reject(Sequential); err != nil {
		return nil, err
	}
	return &seqBackend{cfg: c}, nil
}

// NewPartitioned constructs the partition-parallel router: the grid is
// recursively bisected into WithPartitions leaf regions whose wires
// route concurrently on one shared cost array (wires are classified by
// pin-bounding-box footprint into the deepest region containing them),
// while boundary-crossing wires route serially at their tree level
// against the merged state. With one partition the result is
// bit-identical to the sequential backend.
func NewPartitioned(opts ...Option) (Backend, error) {
	c := apply(opts)
	if err := c.reject(Partitioned); err != nil {
		return nil, err
	}
	return &partBackend{cfg: c}, nil
}

// NewTracedSharedMemory constructs the Tango-style multiplexed shared
// memory router: a deterministic virtual-time execution of P processes
// on one unlocked cost array, with a distributed loop (or a static
// assignment via WithRoundRobin/WithThreshold) and a
// barrier per iteration, whose every shared reference is recorded; the
// result carries the reference trace for the coherence simulator.
func NewTracedSharedMemory(opts ...Option) (Backend, error) {
	c := apply(opts)
	if err := c.reject(SMTraced); err != nil {
		return nil, err
	}
	return &smBackend{cfg: c}, nil
}

// NewMessagePassing constructs the message passing router on the
// simulated mesh (discrete-event simulation): replicated views kept
// consistent by an explicit update schedule, reporting simulated time
// and network traffic.
func NewMessagePassing(opts ...Option) (Backend, error) {
	c := apply(opts)
	if err := c.reject(MPDES); err != nil {
		return nil, err
	}
	return &mpBackend{cfg: c}, nil
}

// run wraps a backend's synchronous routing function with the shared
// request validation, context handling and wall-clock measurement. The
// context is honoured at run boundaries: if it is cancelled mid-run the
// call returns ctx.Err() while the abandoned run finishes in the
// background (the simulators have no preemption points) and its result
// is discarded.
func run(ctx context.Context, req Request, fn func() (Result, error)) (Result, error) {
	if err := ValidateRequest(req); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	if ctx.Done() == nil {
		// No cancellation possible: run on this goroutine.
		res, err := fn()
		if err != nil {
			return Result{}, err
		}
		res.Wall = time.Since(start)
		return res, nil
	}
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := fn()
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			return Result{}, out.err
		}
		out.res.Wall = time.Since(start)
		return out.res, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// seqBackend is the sequential reference implementation.
type seqBackend struct{ cfg config }

func (b *seqBackend) Kind() Kind { return Sequential }
func (b *seqBackend) Procs() int { return 1 }

func (b *seqBackend) Route(ctx context.Context, req Request) (Result, error) {
	return run(ctx, req, func() (Result, error) {
		params := b.cfg.params()
		var res route.Result
		var arr *costarray.CostArray
		var pdoc *obs.PartitionDoc
		if b.cfg.negotiated != nil {
			// Negotiated congestion on the sequential shape: the
			// single-leaf partition driver, which routes every wire in ID
			// order on one goroutine.
			pres, parr, st, err := part.Route(req.Circuit, params,
				part.Config{Partitions: 1, Negotiated: b.cfg.negotiated})
			if err != nil {
				return Result{}, err
			}
			res, arr, pdoc = pres, parr, st.Doc()
		} else {
			res, arr = route.Sequential(req.Circuit, params)
		}
		out := Result{
			Backend:       Sequential,
			Circuit:       req.Circuit.Name,
			Procs:         1,
			CircuitHeight: res.CircuitHeight,
			Occupancy:     res.Occupancy,
			WiresRouted:   res.WiresRouted,
			CellsExamined: res.CellsExamined,
			Final:         arr,
		}
		if b.cfg.collector.Enabled() {
			b.cfg.collector.Append(obs.Run{
				Name: req.Circuit.Name, Backend: string(Sequential), Circuit: req.Circuit.Name, Procs: 1,
				Quality:   &obs.Quality{CircuitHeight: res.CircuitHeight, Occupancy: res.Occupancy},
				Partition: pdoc,
			})
		}
		return out, nil
	})
}

// partBackend is the partition-parallel implementation.
type partBackend struct{ cfg config }

func (b *partBackend) Kind() Kind { return Partitioned }
func (b *partBackend) Procs() int { return b.cfg.procs }

func (b *partBackend) Route(ctx context.Context, req Request) (Result, error) {
	return run(ctx, req, func() (Result, error) {
		// The pool bounds concurrent region routing at the configured
		// processor count; the routing itself is a pure function of
		// (circuit, params, partitions), so the bound affects only wall
		// time, never results.
		pcfg := part.Config{
			Partitions: b.cfg.partitions,
			Workers:    par.New(b.cfg.procs),
			Negotiated: b.cfg.negotiated,
		}
		res, arr, st, err := part.Route(req.Circuit, b.cfg.params(), pcfg)
		if err != nil {
			return Result{}, err
		}
		out := Result{
			Backend:       Partitioned,
			Circuit:       req.Circuit.Name,
			Procs:         b.cfg.procs,
			CircuitHeight: res.CircuitHeight,
			Occupancy:     res.Occupancy,
			WiresRouted:   res.WiresRouted,
			CellsExamined: res.CellsExamined,
			Final:         arr,
		}
		if b.cfg.collector.Enabled() {
			b.cfg.collector.Append(obs.Run{
				Name: req.Circuit.Name, Backend: string(Partitioned), Circuit: req.Circuit.Name, Procs: b.cfg.procs,
				Quality:   &obs.Quality{CircuitHeight: res.CircuitHeight, Occupancy: res.Occupancy},
				Partition: st.Doc(),
			})
		}
		return out, nil
	})
}

// smBackend is the traced shared memory implementation.
type smBackend struct{ cfg config }

func (b *smBackend) Kind() Kind { return SMTraced }
func (b *smBackend) Procs() int { return b.cfg.procs }

func (b *smBackend) Route(ctx context.Context, req Request) (Result, error) {
	return run(ctx, req, func() (Result, error) {
		cfg := sm.DefaultConfig()
		cfg.Procs = b.cfg.procs
		cfg.Router = b.cfg.params()
		var out Result
		if m := b.cfg.method; m != assignDefault && m != assignDynamic {
			asn, err := b.cfg.assignment(req.Circuit, cfg.Procs, &out)
			if err != nil {
				return Result{}, err
			}
			cfg.Order = sm.Static
			cfg.Assignment = asn
		}
		tr := &trace.Trace{}
		res, err := sm.RunTraced(req.Circuit, cfg, tr.AppendBatch)
		if err != nil {
			return Result{}, err
		}
		out.Backend = SMTraced
		out.Circuit = req.Circuit.Name
		out.Procs = cfg.Procs
		out.CircuitHeight = res.CircuitHeight
		out.Occupancy = res.Occupancy
		out.WiresRouted = res.WiresRouted
		out.CellsExamined = res.CellsExamined
		out.SimTime = time.Duration(res.Span)
		out.Final = res.Final
		out.SM = &res
		out.RefTrace = tr
		out.Order = cfg.Order
		if b.cfg.collector.Enabled() {
			b.cfg.collector.Append(sm.ObsRun(req.Circuit.Name, req.Circuit.Name, cfg, res))
		}
		return out, nil
	})
}

// mpBackend is the discrete-event message passing implementation.
type mpBackend struct{ cfg config }

func (b *mpBackend) Kind() Kind { return MPDES }
func (b *mpBackend) Procs() int { return b.cfg.procs }

// mpConfig assembles a fresh mp.Config for one request, so a backend
// routes concurrent requests safely (except under WithTracer, which is
// one-run-at-a-time).
func (b *mpBackend) mpConfig(req Request) mp.Config {
	st := mp.StandardStrategy()
	if b.cfg.strategy != nil {
		st = *b.cfg.strategy
	}
	if b.cfg.blockingSet {
		st.Blocking = true
	}
	if b.cfg.strict {
		st = Strategy{} // strict ownership has no views to update
	}
	cfg := mp.DefaultConfig(st)
	cfg.Procs = b.cfg.procs
	cfg.Router = b.cfg.params()
	if b.cfg.packetsSet {
		cfg.Packets = b.cfg.packets
	}
	cfg.DynamicWires = b.cfg.dynamic
	cfg.StrictOwnership = b.cfg.strict
	cfg.Trace = b.cfg.tracer
	return cfg
}

func (b *mpBackend) Route(ctx context.Context, req Request) (Result, error) {
	return run(ctx, req, func() (Result, error) {
		cfg := b.mpConfig(req)
		var out Result
		asn, err := b.cfg.assignment(req.Circuit, cfg.Procs, &out)
		if err != nil {
			return Result{}, err
		}
		res, err := mp.Run(req.Circuit, asn, cfg)
		if err != nil {
			return Result{}, err
		}
		out.Backend = MPDES
		out.Circuit = req.Circuit.Name
		out.Procs = cfg.Procs
		out.CircuitHeight = res.CircuitHeight
		out.Occupancy = res.Occupancy
		out.CellsExamined = res.CellsExamined
		out.SimTime = time.Duration(res.Time)
		out.Final = res.Final
		out.MP = &res
		out.Strategy = cfg.Strategy
		if b.cfg.collector.Enabled() {
			b.cfg.collector.Append(mp.ObsRun(req.Circuit.Name, req.Circuit.Name, cfg, res))
		}
		return out, nil
	})
}
