// Package locusd is the routing service behind cmd/locusd: a sharded
// batch-serving layer that answers route-request traffic against
// preloaded circuits.
//
// At startup each circuit is routed once through a pkg/locusroute
// backend; the resulting cost array is the baseline congestion state.
// Each circuit is then served from one copy of that array — the paper's
// shared-memory design, since the daemon has one address space — by a
// set of shard loops draining one queue: batches evaluate under the
// array's read lock, while a batch that commits and a mutation take its
// write lock, so a committed wire or an applied mutation is visible to
// every later request on the circuit.
//
// The request path is one pipeline: Server.Route runs a request through
// explicit stages (validate, admit, cache, gate, enqueue, await) and
// settles the outcome they reach in one place — counter and span are a
// function of the outcome (see settlement). Admission is the gate
// alone; two optional elements (internal/policy) sit around the
// batching core: a result cache keyed by (circuit, wire set, cost epoch)
// can answer repeats without routing, and the criticality scheduler
// re-keys the circuit's queue from arrival time to deadline —
// earliest-deadline-first within each batch, least-critical-first
// shedding at the admission gate (see dispatch.go). Each element is nil
// when disabled, at zero measurable cost (0 allocs pinned by
// policy.TestDisabledAllocatesNothing; the time is inside
// BENCHMARK.json's locusd.inproc_route_us).
//
// There is no batch window: an idle shard evaluates a lone arrival at
// once, and requests that queue up while a shard is busy (or the pool is
// full) are popped together as its next batch and evaluated back to back
// through a route.Scratch borrowed from route's grid-keyed pool for the
// batch (reused scratch space is what makes the steady state
// allocation-free). A par.Gate bounds admitted requests — a full gate
// sheds load with HTTP 429 rather than queueing without bound — and a
// par.Pool bounds how many shard loops evaluate batches at once.
package locusd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/par"
	"locusroute/internal/policy"
	"locusroute/internal/reqtrace"
	"locusroute/internal/route"
	"locusroute/internal/store"
	"locusroute/pkg/locusroute"
)

// Config sizes the service. The zero value of every field has a sensible
// default applied by New.
type Config struct {
	// Backend selects the pkg/locusroute implementation that routes each
	// circuit at startup to produce the baseline congestion state
	// (default Sequential, the reference router).
	Backend locusroute.Kind
	// Procs is the processor count for the baseline backend (ignored for
	// Sequential; default 16, the paper's machine size).
	Procs int
	// Partitions is the leaf-region count for the partitioned baseline
	// backend: big circuits route their baseline with intra-request
	// parallelism. Only meaningful when Backend is Partitioned (0 keeps
	// the backend's default of 4).
	Partitions int
	// Shards is the number of shard loops per circuit (default 4): they
	// share the circuit's one cost array and one queue, so it bounds how
	// many of the circuit's batches evaluate at once.
	Shards int
	// MaxBatch caps the wires evaluated in one batch, i.e. how long a
	// shard loop holds its pool slot and the array lock (default 64).
	MaxBatch int
	// MaxInFlight bounds admitted requests across all circuits; arrivals
	// beyond it are shed with 429 (default 256).
	MaxInFlight int
	// DefaultDeadline applies when a request carries no deadline_ms
	// (default 5s).
	DefaultDeadline time.Duration
	// Pool bounds concurrent batch evaluations; nil means unbounded
	// (every shard may evaluate at once), as for any nil par.Pool.
	Pool *par.Pool
	// Policy enables the result cache and the EDF scheduler; the zero
	// value disables both, leaving arrival-order dispatch.
	Policy policy.Config
	// Tracer enables request-lifecycle tracing (internal/reqtrace):
	// request ids, per-stage spans, stage histograms, the slow-request
	// log, and /debug/trace live capture. Nil disables all of it — the
	// request path pays one pointer test and zero allocations.
	Tracer *reqtrace.Tracer
	// EnablePProf mounts net/http/pprof on the server's mux under
	// /debug/pprof/ (off by default: the profile endpoints can block and
	// expose symbol tables, so exposing them is an explicit decision).
	EnablePProf bool
	// Store owns the dynamic circuit lifecycle: runtime uploads,
	// mutations, evictions, and (when it has a persistence directory)
	// snapshot+WAL recovery. Circuits the store already holds at startup
	// are served automatically. Nil gets a private in-memory store, so
	// the lifecycle API always works; pass one explicitly for
	// persistence or a memory budget. Every store routes with
	// route.DefaultParams, as every read does, so an explicit store
	// serves the same arrays a private one would.
	Store *store.Store
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = locusroute.Sequential
	}
	if c.Procs < 1 {
		c.Procs = 16
	}
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 64
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	return c
}

// Sentinel errors.
var (
	// ErrDeadline is the service-level deadline failure: the request's
	// deadline expired while it was queued or mid-batch.
	ErrDeadline = errors.New("locusd: request deadline expired before routing")
	// ErrDraining rejects new work during graceful shutdown.
	ErrDraining = errors.New("locusd: server is draining")
	// ErrShed rejects work when the admission gate is full.
	ErrShed = errors.New("locusd: at capacity, retry later")
	// ErrUnknownCircuit reports a request naming a circuit the server does
	// not serve.
	ErrUnknownCircuit = errors.New("locusd: unknown circuit")
	// ErrCircuitExists rejects an upload naming a circuit already served
	// (store.ErrExists, re-surfaced at the service layer).
	ErrCircuitExists = store.ErrExists
	// ErrImmutable rejects a mutation or eviction of a circuit served
	// outside the store — a startup circuit whose baseline came from a
	// non-sequential backend has no canonical per-wire paths to rip up.
	ErrImmutable = errors.New("locusd: circuit is immutable (not store-backed)")
	// ErrTraceID rejects an oversized caller-supplied trace id.
	ErrTraceID = fmt.Errorf("locusd: trace id exceeds %d bytes", reqtrace.MaxTraceID)
)

// RouteRequest is one wire evaluation against a served circuit.
type RouteRequest struct {
	// Circuit names a preloaded circuit.
	Circuit string
	// Wire is the wire to evaluate (>= 2 pins, all inside the circuit's
	// grid — out-of-grid pins are rejected, never clamped).
	Wire circuit.Wire
	// Commit places the evaluated path on the circuit's serving array,
	// making it visible to every later request on the circuit.
	Commit bool
	// Client identifies the caller in the request's trace record (the
	// transports fill it from X-Client or the frame, else the remote host).
	Client string
	// TraceID is a caller-supplied request id to adopt (HTTP carries it
	// as X-Locus-Request-Id, the binary protocol on traced frames).
	// Empty mints a server id; longer than reqtrace.MaxTraceID is
	// rejected, never clamped. Ignored when tracing is disabled.
	TraceID string
}

// RouteResponse reports one evaluation.
type RouteResponse struct {
	Circuit       string `json:"circuit"`
	Shard         int    `json:"shard"`
	WireID        int    `json:"wire"`
	Cost          int64  `json:"cost"`
	PathCells     int    `json:"path_cells"`
	CellsExamined int    `json:"cells_examined"`
	BatchSize     int    `json:"batch_size"`
	BatchIndex    int    `json:"batch_index"`
	Committed     bool   `json:"committed"`
	Cached        bool   `json:"cached"`
	WaitMicros    int64  `json:"wait_us"`

	// RequestID and Stages are present only when tracing is enabled: the
	// echoed request id and the per-stage breakdown whose durations sum
	// to the request's wall latency exactly.
	RequestID string        `json:"request_id,omitempty"`
	Stages    []StageSample `json:"stages,omitempty"`
}

// StageSample is one stage's share of a traced request's latency.
type StageSample struct {
	// Code is the reqtrace.Stage index, carried for the binary protocol;
	// the JSON layer names the stage instead.
	Code  uint8  `json:"-"`
	Stage string `json:"stage"`
	Ns    int64  `json:"ns"`
}

// pending is one admitted request waiting for a shard loop.
type pending struct {
	// item is the request's shard-queue entry, keyed on its deadline under
	// the scheduler and on its arrival time otherwise; item.Value points
	// back at the pending, so queueing costs no allocation of its own.
	item     policy.Item
	req      RouteRequest
	ctx      context.Context
	enqueued time.Time
	done     chan outcome
	// gateHeld arbitrates the request's admission slot between its own
	// goroutine and a preempting one: whoever flips true->false releases
	// the gate, exactly once.
	gateHeld atomic.Bool
	// expired arbitrates the met.expired count the same way: the waiter
	// (ctx.Done) and the shard loop (stale entry in process) can both
	// notice the expiry, but only the first to flip it counts.
	expired atomic.Bool
}

// outcome is what a shard loop (or preempt) answers a waiter with: how
// the request ended there — OutcomeOK with resp, else err — plus t.
type outcome struct {
	oc   reqtrace.Outcome
	resp RouteResponse
	err  error
	// t are the shard-side stage boundaries on the tracer clock — batch
	// start, eval start, eval end, commit end — all zero when tracing is
	// disabled. The span itself stays with the waiter (flight.span) and
	// the shard never touches it, so a waiter that abandoned on ctx.Done
	// never races a late stamp; the channel handoff gives it a
	// happens-before copy of these instead.
	t [4]int64
}

// servedCircuit is one served circuit: its serving cost array, the queue
// its shard loops drain, and the cache epoch that tracks the array.
// Routing scratch space is not owned by the circuit — batches borrow it
// from route's grid-keyed pool (route.GetScratch), so idle circuits hold
// no scratch memory and every circuit with the same grid shares one warm
// set.
type servedCircuit struct {
	name     string
	grid     geom.Grid
	baseline locusroute.Result
	// mu guards arr: a batch evaluates under the read lock, or under the
	// write lock when it holds a commit; Mutate applies under the write
	// lock.
	mu  sync.RWMutex
	arr *costarray.CostArray
	// queue feeds every shard loop of the circuit, keyed on arrival time,
	// or on deadline under the EDF scheduler — where preempt looks for
	// victims.
	queue *policy.EDFQueue
	// epoch counts committed paths plus applied store mutations: the
	// result cache's invalidation clock. It moves under the write lock,
	// after the change reaches arr, so a request that reads an epoch is
	// evaluated against an array holding everything that epoch counts.
	epoch atomic.Uint64
	// wireCount tracks the circuit's wire count (mutations move it).
	wireCount atomic.Int64
	// mutable marks a store-backed circuit: uploads at runtime, startup
	// circuits routed through the sequential baseline, and recovered
	// circuits. Only mutable circuits accept Mutate and EvictCircuit.
	mutable bool
	// cacheName is the result cache's circuit key: the circuit name
	// suffixed with a server-unique generation, so cached results from an
	// evicted circuit can never answer for a later upload of the same name.
	cacheName string
	// stop ends the circuit's shard loops on eviction; inflight tracks
	// requests targeting this circuit, which EvictCircuit waits out
	// before stopping the loops.
	stop     chan struct{}
	inflight sync.WaitGroup
}

// Server is the routing service. Create with New, serve its Handler,
// then BeginDrain + Close on shutdown.
type Server struct {
	cfg   Config
	cache *policy.Cache // nil: no result cache
	sched *policy.Sched // nil: arrival-order dispatch
	gate  par.Gate
	store *store.Store

	// mu guards the serving registry (circuits, names): runtime uploads
	// and evictions write it, every request path reads it.
	mu       sync.RWMutex
	circuits map[string]*servedCircuit
	names    []string // stable iteration order for /circuits and /debug/vars

	// gen feeds servedCircuit.cacheName: each (re)registration of a name
	// gets a fresh generation, fencing the result cache across evict +
	// re-upload of the same name.
	gen atomic.Uint64

	met      metrics
	draining atomic.Bool
	drainc   chan struct{} // closed by the first BeginDrain
	closing  sync.Once
	stop     chan struct{}
	loops    sync.WaitGroup
	inflight sync.WaitGroup
	started  time.Time
}

// New stands up the serving layer. Startup circuits are routed once for
// their baseline congestion state: under the default Sequential backend
// they are uploaded into the store (making them mutable and, with a
// persistent store, durable); under any other backend they are routed
// through that backend and served immutably, since only the store's
// sequential baseline retains the per-wire paths incremental mutation
// needs. Circuits the store already holds — recovered from disk, or
// preloaded by the caller — are served automatically; a startup circuit
// whose name the store already holds defers to the store's copy.
func New(cfg Config, circuits ...*circuit.Circuit) (*Server, error) {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		if len(circuits) == 0 {
			return nil, errors.New("locusd: no circuits to serve")
		}
		var err error
		st, err = store.Open(store.Config{})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:      cfg,
		gate:     par.NewGate(cfg.MaxInFlight),
		store:    st,
		circuits: make(map[string]*servedCircuit, len(circuits)),
		drainc:   make(chan struct{}),
		stop:     make(chan struct{}),
		started:  time.Now(),
	}
	s.cache, s.sched = policy.New(cfg.Policy)
	seen := make(map[string]bool, len(circuits))
	for _, c := range circuits {
		if seen[c.Name] {
			return nil, fmt.Errorf("locusd: duplicate circuit name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if cfg.Backend == locusroute.Sequential {
		for _, c := range circuits {
			if _, err := st.Upload(c); err != nil && !errors.Is(err, store.ErrExists) {
				return nil, fmt.Errorf("locusd: baseline routing of %q: %w", c.Name, err)
			}
			// ErrExists: the store recovered this name from disk; its
			// durable copy wins over the startup argument.
		}
	} else {
		opts := []locusroute.Option{locusroute.WithProcs(cfg.Procs)}
		if cfg.Partitions > 0 && cfg.Backend == locusroute.Partitioned {
			opts = append(opts, locusroute.WithPartitions(cfg.Partitions))
		}
		be, err := locusroute.New(cfg.Backend, opts...)
		if err != nil {
			return nil, err
		}
		for _, c := range circuits {
			if _, held := st.Get(c.Name); held {
				continue // the store's recovered copy wins
			}
			base, err := be.Route(context.Background(), locusroute.Request{Circuit: c})
			if err != nil {
				return nil, fmt.Errorf("locusd: baseline routing of %q: %w", c.Name, err)
			}
			s.register(s.newServedCircuit(c.Name, c.Grid, len(c.Wires), base, false, base.Final.Clone()))
		}
	}
	for _, name := range st.Names() {
		if _, dup := s.circuits[name]; dup {
			continue
		}
		sc, err := s.serveStored(name)
		if err != nil {
			return nil, err
		}
		s.register(sc)
	}
	return s, nil
}

// newServedCircuit assembles a circuit's serving state around arr, the
// circuit's own serving array.
func (s *Server) newServedCircuit(name string, g geom.Grid, wires int, base locusroute.Result, mutable bool, arr *costarray.CostArray) *servedCircuit {
	sc := &servedCircuit{
		name:      name,
		grid:      g,
		baseline:  base,
		arr:       arr,
		queue:     policy.NewEDFQueue(),
		mutable:   mutable,
		cacheName: fmt.Sprintf("%s#%d", name, s.gen.Add(1)),
		stop:      make(chan struct{}),
	}
	sc.wireCount.Store(int64(wires))
	return sc
}

// serveStored builds serving state for a store-held circuit: the serving
// array clones the canonical one, and the baseline is the store's
// upload-time sequential routing.
func (s *Server) serveStored(name string) (*servedCircuit, error) {
	info, ok := s.store.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (store no longer holds it)", ErrUnknownCircuit, name)
	}
	base := locusroute.Result{
		Backend:       locusroute.Sequential,
		Circuit:       name,
		Procs:         1,
		CircuitHeight: info.Baseline.CircuitHeight,
		Occupancy:     info.Baseline.Occupancy,
		WiresRouted:   info.Baseline.WiresRouted,
		CellsExamined: info.Baseline.CellsExamined,
	}
	arr, ok := s.store.CloneArray(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (evicted during registration)", ErrUnknownCircuit, name)
	}
	return s.newServedCircuit(name, info.Grid, info.Wires, base, true, arr), nil
}

// register installs a circuit and starts its shard loops.
func (s *Server) register(sc *servedCircuit) {
	s.mu.Lock()
	s.circuits[sc.name] = sc
	s.names = append(s.names, sc.name)
	sort.Strings(s.names)
	s.mu.Unlock()
	for id := range s.cfg.Shards {
		s.loops.Add(1)
		go s.shardLoop(sc, id)
	}
}

// lookupServed fetches a circuit's serving state and registers the
// caller with its in-flight group, which EvictCircuit waits out. The
// caller must call sc.inflight.Done() when finished with the circuit.
func (s *Server) lookupServed(name string) *servedCircuit {
	s.mu.RLock()
	sc := s.circuits[name]
	if sc != nil {
		sc.inflight.Add(1)
	}
	s.mu.RUnlock()
	return sc
}

// served snapshots the registry in name order; callers walk circuits
// (and their queues) without holding the registry lock.
func (s *Server) served() []*servedCircuit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	scs := make([]*servedCircuit, 0, len(s.names))
	for _, name := range s.names {
		scs = append(scs, s.circuits[name])
	}
	return scs
}

// String names the circuit, so an error can list what served() returned.
func (sc *servedCircuit) String() string { return sc.name }

// flight is one request's way through Route's stages. It lives on
// Route's stack; only the pending entry the gate stage creates is shared
// with a shard loop.
type flight struct {
	req      RouteRequest
	ctx      context.Context
	cancel   context.CancelFunc // set when admit applied the default deadline
	arrived  time.Time          // the wait_us origin and the FIFO queue key
	deadline time.Time          // ctx deadline: the EDF queue key
	span     reqtrace.Span      // inert when tracing is disabled
	sc       *servedCircuit     // in-flight registration, held from validate on
	key      uint64             // the cache's wire-set key (policy.KeyPins)
	epoch    uint64             // cost epoch captured before dispatch
	p        *pending           // holds a gate slot from enterGate on

	// How the request ended, for settle.
	oc   reqtrace.Outcome
	err  error
	resp RouteResponse
}

// end records the outcome a stage ended the request with. The false it
// returns stops the pipeline.
func (f *flight) end(oc reqtrace.Outcome, err error) bool {
	f.oc, f.err = oc, err
	return false
}

// Route admits, dispatches and awaits one request: the core both
// transports wrap. Each stage passes the request on or ends it with an
// outcome; settle alone does the accounting that outcome owes — no stage
// touches a counter or the span's finish.
func (s *Server) Route(ctx context.Context, req RouteRequest) (RouteResponse, error) {
	// Register with the drain group before checking the flag: a request
	// that sees draining=false here is guaranteed to be covered by
	// Close's inflight.Wait, so its shard loop is still running.
	s.inflight.Add(1)
	defer s.inflight.Done()
	f := flight{req: req, ctx: ctx}
	defer s.release(&f)
	if s.validate(&f) && s.admit(&f) && s.lookup(&f) && s.enterGate(&f) {
		s.enqueue(&f)
		s.await(&f)
	}
	return s.settle(&f)
}

// release returns what the stages acquired: the admission slot, the
// default-deadline timer, and the circuit's in-flight registration,
// which held off EvictCircuit until the shard loop answered.
func (s *Server) release(f *flight) {
	if f.p != nil {
		s.releaseGate(f.p)
	}
	if f.cancel != nil {
		f.cancel()
	}
	if f.sc != nil {
		f.sc.inflight.Done()
	}
}

// validate resolves the request against the serving registry: trace id
// bound, drain flag, circuit lookup, wire geometry.
func (s *Server) validate(f *flight) bool {
	if len(f.req.TraceID) > reqtrace.MaxTraceID {
		return f.end(reqtrace.OutcomeRejected, ErrTraceID)
	}
	f.span = s.cfg.Tracer.Begin(f.req.TraceID, f.req.Circuit, f.req.Client, f.req.Wire.ID)
	if s.draining.Load() {
		return f.end(reqtrace.OutcomeDenied, ErrDraining)
	}
	if f.sc = s.lookupServed(f.req.Circuit); f.sc == nil {
		return f.end(reqtrace.OutcomeRejected,
			fmt.Errorf("%w %q (serving %v)", ErrUnknownCircuit, f.req.Circuit, s.served()))
	}
	if err := locusroute.ValidateWires(f.sc.grid, []circuit.Wire{f.req.Wire}); err != nil {
		return f.end(reqtrace.OutcomeRejected, err)
	}
	// The result cache keys on the pins (policy.KeyPins), so one wire set
	// given in two pin orders must arrive as one key: the request carries
	// its pins in the kernel's order, a sorted copy when the caller's were
	// not — never the caller's slice reordered.
	f.req.Wire.Pins = route.SortPins(f.req.Wire.Pins)
	return true
}

// admit fixes the request's deadline: the EDF key and the waiter's
// expiry.
func (s *Server) admit(f *flight) bool {
	f.arrived = time.Now()
	// The default deadline is a service property, not a transport one:
	// an embedder calling Route with a plain context gets the same
	// criticality floor as an HTTP caller omitting deadline_ms. Without
	// it, EDF would sort plain-context requests least-critical forever
	// and evict them first at every full gate.
	if _, has := f.ctx.Deadline(); !has && s.cfg.DefaultDeadline > 0 {
		f.ctx, f.cancel = context.WithTimeout(f.ctx, s.cfg.DefaultDeadline)
	}
	f.deadline, _ = f.ctx.Deadline()
	return true
}

// lookup consults the result cache. A commit neither reads nor (in
// await) fills it, and the nil cache skips the stage.
func (s *Server) lookup(f *flight) bool {
	if s.cache == nil || f.req.Commit {
		return true
	}
	// The epoch is captured before dispatch: a result evaluated while a
	// commit lands is stored under the pre-commit epoch and can never be
	// served against the new congestion state.
	f.epoch = f.sc.epoch.Load()
	var lookT time.Time
	if f.span.Traced() {
		lookT = time.Now()
	}
	// The cache keys on the generation-suffixed name: results cached for
	// an evicted circuit can never answer for a later upload reusing it.
	f.key = policy.KeyPins(f.req.Wire.Pins)
	v, hit := s.cache.Get(f.sc.cacheName, f.key, f.epoch)
	if f.span.Traced() {
		f.span.Element("cache", time.Since(lookT))
	}
	if !hit {
		return true
	}
	f.resp = v.(RouteResponse)
	f.resp.WireID = f.req.Wire.ID
	f.resp.Cached = true
	f.resp.BatchSize, f.resp.BatchIndex, f.resp.WaitMicros = 0, 0, 0
	return f.end(reqtrace.OutcomeCached, nil)
}

// enterGate takes an admission slot. At a full gate the criticality
// scheduler may take the slot of a strictly less critical queued request
// instead of shedding the arrival.
func (s *Server) enterGate(f *flight) bool {
	if !s.gate.TryEnter() && !s.preempt(f.deadline) {
		return f.end(reqtrace.OutcomeShed, ErrShed)
	}
	f.p = &pending{req: f.req, ctx: f.ctx, enqueued: f.arrived, done: make(chan outcome, 1)}
	f.p.gateHeld.Store(true)
	return true
}

// enqueue pushes the request onto the circuit's queue. Everything up to
// here — validation, the deadline, the cache, the gate — is the admit
// stage of the span.
func (s *Server) enqueue(f *flight) {
	f.span.Mark(reqtrace.StageAdmit)
	// FIFO is EDF keyed on arrival time: the scheduler only changes the
	// key.
	key := f.arrived
	if s.sched != nil {
		s.sched.NoteScheduled()
		key = f.deadline
	}
	f.p.item = policy.Item{Deadline: key, Value: f.p}
	f.sc.queue.Push(&f.p.item)
}

// await blocks until the shard answers, preemption evicts the entry, or
// the deadline passes — whichever comes first.
func (s *Server) await(f *flight) {
	select {
	case out := <-f.p.done:
		if out.err == nil {
			// The shard's stage stamps (no-ops on an untraced span).
			f.span.MarkAt(reqtrace.StageQueue, out.t[0])
			f.span.MarkAt(reqtrace.StageBatch, out.t[1])
			f.span.MarkAt(reqtrace.StageRoute, out.t[2])
			f.span.MarkAt(reqtrace.StageCommit, out.t[3])
			f.span.SetShard(out.resp.Shard)
			// The cache stores the evaluation, not the trace: a hit is a
			// different request with its own id and breakdown.
			if !f.req.Commit {
				s.cache.Put(f.sc.cacheName, f.key, f.epoch, out.resp)
			}
		}
		f.resp = out.resp
		f.end(out.oc, out.err)
	case <-f.ctx.Done():
		// The shard will still evaluate (or expire) the entry; its
		// buffered done send is discarded.
		f.end(reqtrace.OutcomeExpired, ErrDeadline)
	}
}

// settlement is the accounting each outcome owes, applied by settle and
// nowhere else: the counter that bumps and the span stage charged with
// the time since the last boundary. One table holds every path to the
// same pair, the way compute + packet + blocked + barrier == total holds
// the simulator's paths to one identity.
var settlement = [reqtrace.NumOutcomes]struct {
	count  func(*Server, *pending) // pending is nil before the gate stage
	charge reqtrace.Stage
}{
	// served is counted per evaluation by the shard (process).
	reqtrace.OutcomeOK:       {nil, reqtrace.StageRespond},
	reqtrace.OutcomeCached:   {func(s *Server, _ *pending) { s.count(&s.met.cacheHits) }, reqtrace.StageAdmit},
	reqtrace.OutcomeRejected: {func(s *Server, _ *pending) { s.count(&s.met.rejected) }, reqtrace.StageRespond},
	reqtrace.OutcomeDenied:   {func(s *Server, _ *pending) { s.count(&s.met.denied) }, reqtrace.StageRespond},
	reqtrace.OutcomeShed:     {func(s *Server, _ *pending) { s.count(&s.met.shed) }, reqtrace.StageRespond},
	// preempt counted shed+evicted when it picked the victim. Like an
	// expiry, the request died waiting: the dead time belongs to the
	// queue stage, not the respond tail.
	reqtrace.OutcomeEvicted: {nil, reqtrace.StageQueue},
	// The shard loop can notice the same expiry; countExpired arbitrates.
	reqtrace.OutcomeExpired: {(*Server).countExpired, reqtrace.StageQueue},
}

// settle closes a request out by its outcome's settlement row and
// finishes the span. An error response is empty except for the echoed
// request id, which transports still surface so a rejected or expired
// request remains attributable in client logs.
func (s *Server) settle(f *flight) (RouteResponse, error) {
	row := &settlement[f.oc]
	if row.count != nil {
		row.count(s, f.p)
	}
	f.span.Mark(row.charge)
	s.finishSpan(&f.span, f.oc, &f.resp)
	return f.resp, f.err
}

// finishSpan closes sp, feeds the per-stage histograms, and stamps resp
// with the request id and the breakdown: the non-zero stages in stage
// order, whose nanoseconds sum to the record's wall latency exactly.
// No-op for untraced spans.
func (s *Server) finishSpan(sp *reqtrace.Span, oc reqtrace.Outcome, resp *RouteResponse) {
	var rec reqtrace.Rec
	if !sp.Finish(oc, &rec) {
		return
	}
	resp.RequestID = rec.IDString()
	resp.Stages = make([]StageSample, 0, reqtrace.NumStages)
	s.met.mu.Lock()
	for st := reqtrace.Stage(0); st < reqtrace.NumStages; st++ {
		if ns := rec.Stages[st]; ns > 0 {
			s.met.stageUs[st].Observe(ns / 1e3)
			resp.Stages = append(resp.Stages, StageSample{Code: uint8(st), Stage: st.String(), Ns: ns})
		}
	}
	s.met.mu.Unlock()
}

// countExpired counts p in met.expired exactly once, whichever of its
// waiter goroutine or its shard loop notices the expiry first.
func (s *Server) countExpired(p *pending) {
	if p.expired.CompareAndSwap(false, true) {
		s.count(&s.met.expired)
	}
}

// releaseGate frees p's admission slot exactly once, whether its own
// goroutine or a preempting arrival gets there first.
func (s *Server) releaseGate(p *pending) {
	if p.gateHeld.CompareAndSwap(true, false) {
		s.gate.Leave()
	}
}

// count bumps one plain counter under the metrics lock.
func (s *Server) count(field *int64) {
	s.met.mu.Lock()
	*field++
	s.met.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports currently admitted requests.
func (s *Server) InFlight() int { return s.gate.InFlight() }

// Policy lists the enabled policy elements in request-path order (none
// when both are disabled), as /v1/metrics labels them.
func (s *Server) Policy() []policy.Element { return policy.Elements(s.cache, s.sched) }

// Epoch reports a served circuit's current serving epoch: committed
// paths plus applied mutation ops, the result cache's invalidation
// clock. Unknown circuits report 0.
func (s *Server) Epoch(circuitName string) uint64 {
	s.mu.RLock()
	sc := s.circuits[circuitName]
	s.mu.RUnlock()
	if sc == nil {
		return 0
	}
	return sc.epoch.Load()
}

// BeginDrain stops admitting new requests; in-flight requests keep
// running, and a /debug/trace capture in progress ends early. Safe to
// call more than once.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainc)
	}
}

// Close completes a drain: it waits for admitted requests to finish,
// stops the shard loops (which first evaluate anything still queued),
// and returns once every loop has exited. Call BeginDrain first;
// Close does it if the caller did not.
func (s *Server) Close() {
	s.BeginDrain()
	s.inflight.Wait()
	s.closing.Do(func() { close(s.stop) })
	s.loops.Wait()
}
