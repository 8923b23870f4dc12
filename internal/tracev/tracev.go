// Package tracev is the event-level tracing layer of the DES runtimes:
// where internal/obs aggregates simulated time into per-node counters,
// tracev records the *sequence* — begin/end spans, instant events, and
// cross-node packet flows — so a run can be replayed as a timeline
// (Chrome trace-event JSON, openable in ui.perfetto.dev) and mined for
// the chain of dependent events that bounds the run's simulated time
// (the critical path, critpath.go).
//
// tracev sits below internal/sim in the import graph, so timestamps are
// plain int64 simulated nanoseconds rather than sim.Time; callers
// convert at the instrumentation site.
//
// # Cost model
//
// A nil *Tracer is the disabled state: every method returns after one
// pointer test and allocates nothing, so instrumented hot paths (kernel
// event dispatch, channel wakes, per-wire routing) pay nothing
// measurable when tracing is off. An enabled tracer records into a ring
// of flat Event structs — no per-event allocation once the ring has
// grown to capacity; when the ring is full the oldest events are
// overwritten (Dropped reports how many), which is exactly the right
// retention policy for the critical-path walk: it runs backward from
// the end of the run, so the most recent events are the valuable ones.
//
// # Event model
//
// Events carry a stable integer Kind (never reorder these constants: a
// written trace's kinds must stay decodable across versions), a Track
// (the simulated node id; TrackKernel for kernel-context events), a
// timestamp, and one Arg whose meaning the Kind defines. Five record
// types exist:
//
//   - TypeBegin/TypeEnd bracket a span on one track (B/E in the Chrome
//     format); they must balance and nest per track.
//   - TypeInstant marks a point (channel block/wake, packet delivery).
//   - TypeFlowBegin/TypeFlowEnd are the two ends of a cross-track
//     arrow: a packet leaving its sender and being dequeued by its
//     receiver, joined by a Flow id unique within the run.
//   - An Account instant (KindAccount) is the analyzer's backbone: it
//     stamps that the interval since the previous Account on the same
//     track belongs to Category(Arg). The MP DES node emits one at every
//     point simulated time advances — from the same call that charges
//     the node's time ledger — so each track's Account stamps tile the
//     node's whole life.
package tracev

// Type discriminates the record layouts.
type Type uint8

const (
	// TypeBegin opens a span on Track at At.
	TypeBegin Type = iota
	// TypeEnd closes the most recent open span on Track.
	TypeEnd
	// TypeInstant marks a point event on Track.
	TypeInstant
	// TypeFlowBegin starts a cross-track flow (a packet leaving Track).
	TypeFlowBegin
	// TypeFlowEnd finishes a flow (the packet dequeued on Track).
	TypeFlowEnd
)

// Kind is the stable event vocabulary. Integer values are part of the
// trace format: append new kinds, never renumber.
type Kind uint8

const (
	// KindNone is the zero kind.
	KindNone Kind = iota
	// KindRouteWire spans one wire routing (rip-up, evaluation,
	// commit); Arg is the wire index.
	KindRouteWire
	// KindSendPacket spans one protocol send (assembly copy, network
	// injection); Arg is the protocol message kind (msg.Kind).
	KindSendPacket
	// KindHandlePacket spans one packet reception (receive copy,
	// disassembly, application, responses); Arg is the packet size in
	// bytes.
	KindHandlePacket
	// KindBlocked spans a wait for outstanding update responses
	// (blocking schedules) or task completions; Arg is the number
	// outstanding at entry.
	KindBlocked
	// KindBarrier spans the inter-iteration barrier; Arg is the
	// iteration index.
	KindBarrier
	// KindPacketFlow is the flow pair of one packet crossing the mesh:
	// FlowBegin on the sender at injection (Arg = size in bytes),
	// FlowEnd on the receiver at dequeue (Arg = size in bytes).
	KindPacketFlow
	// KindDeliver is the instant a packet's tail arrives in the
	// destination inbox (before the receiver dequeues it); Arg is the
	// packet size in bytes.
	KindDeliver
	// KindChanBlock is the instant a process parks on an empty
	// simulated channel; Arg is unused.
	KindChanBlock
	// KindChanWake is the instant a parked process resumes with an item
	// available; Arg is the queue depth seen on waking.
	KindChanWake
	// KindAccount stamps that the interval since the previous
	// KindAccount on the same track belongs to Category(Arg). The
	// stamps on one track tile the node's life from 0 to its finish.
	KindAccount
	// KindIteration spans one routing iteration on a track; Arg is the
	// iteration index.
	KindIteration

	// Request-lifecycle kinds: the serving path's reqtrace export renders
	// each locusd request as one KindRequest span tiled by stage
	// sub-spans on a synthetic lane track. Arg is the process-unique
	// request id on every one of them.

	// KindRequest spans one serving-path request end to end.
	KindRequest
	// KindReqAdmit spans validation + the policy admission chain.
	KindReqAdmit
	// KindReqQueue spans the wait from dispatch to batch pickup.
	KindReqQueue
	// KindReqBatch spans the in-batch wait before this wire's evaluation.
	KindReqBatch
	// KindReqRoute spans the kernel evaluation of the request's wire.
	KindReqRoute
	// KindReqCommit spans the commit onto the circuit's serving array.
	KindReqCommit
	// KindReqRespond spans the handoff back to the waiting caller.
	KindReqRespond
)

// String names the kind for export and debugging.
func (k Kind) String() string {
	switch k {
	case KindRouteWire:
		return "route wire"
	case KindSendPacket:
		return "send"
	case KindHandlePacket:
		return "handle"
	case KindBlocked:
		return "blocked"
	case KindBarrier:
		return "barrier"
	case KindPacketFlow:
		return "packet"
	case KindDeliver:
		return "deliver"
	case KindChanBlock:
		return "chan block"
	case KindChanWake:
		return "chan wake"
	case KindAccount:
		return "account"
	case KindIteration:
		return "iteration"
	case KindRequest:
		return "request"
	case KindReqAdmit:
		return "admit"
	case KindReqQueue:
		return "queue"
	case KindReqBatch:
		return "batch"
	case KindReqRoute:
		return "route"
	case KindReqCommit:
		return "commit"
	case KindReqRespond:
		return "respond"
	}
	return "event"
}

// Category is the time charge an Account stamp assigns: the four
// categories of an MP DES node's time ledger (which indexes its ledger
// by Category) plus the two charges only a path walk can attribute:
// network flight and untraced (ring-truncated) time.
type Category uint8

const (
	// CatCompute is routing work: rip-up, evaluation, commit.
	CatCompute Category = iota
	// CatPacket is update machinery: packet assembly, disassembly,
	// scans, application, network interface copies.
	CatPacket
	// CatBlocked is time parked on an empty receive queue outside the
	// barrier (blocking schedules, strict-ownership segment waits).
	CatBlocked
	// CatBarrier is time parked at the inter-iteration barrier.
	CatBarrier
	// CatNetwork is packet flight time preceding a wait — attributed
	// only by the critical-path walk, never by Account stamps.
	CatNetwork
	// CatUntraced is path time before the oldest retained event when
	// the ring wrapped — attributed only by the critical-path walk.
	CatUntraced

	// NumCategories bounds Category for array indexing.
	NumCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatPacket:
		return "packet"
	case CatBlocked:
		return "blocked"
	case CatBarrier:
		return "barrier"
	case CatNetwork:
		return "network"
	case CatUntraced:
		return "untraced"
	}
	return "category"
}

// TrackKernel is the track of events recorded in kernel context or by a
// process that never declared a track.
const TrackKernel int32 = -1

// Event is one flat trace record. 40 bytes, no pointers: a full ring is
// one allocation and invisible to the garbage collector's scan phase.
type Event struct {
	// At is the simulated time in nanoseconds.
	At int64
	// Arg is kind-specific (wire index, packet size, category, ...).
	Arg int64
	// Flow joins TypeFlowBegin/TypeFlowEnd pairs; 0 means no flow.
	Flow uint64
	// Track is the node id the event belongs to (TrackKernel for
	// kernel-context events).
	Track int32
	// Type is the record layout.
	Type Type
	// Kind is the event vocabulary entry.
	Kind Kind
}

// DefaultCapacity is the default ring size (events). At 40 bytes per
// event this is ~40 MB when full — sized so every paper-scale run fits
// without wrapping; small runs only allocate what they record, because
// the ring grows lazily up to the capacity.
const DefaultCapacity = 1 << 20

// Tracer records events into a bounded ring. A nil *Tracer ignores
// every call (the disabled state). A Tracer is confined to one
// simulation: the DES kernel serialises all node execution, so no
// internal locking is needed — do not share one Tracer across
// concurrent runs (the parallel experiment driver gives each traced run
// its own).
type Tracer struct {
	events  []Event
	cap     int
	next    int    // write index once the ring is full
	dropped uint64 // events overwritten after wrap

	dispatches int64  // kernel events dispatched (counter, not events)
	lastFlow   uint64 // flow id allocator
}

// New returns an enabled tracer retaining up to capacity events
// (capacity < 1 selects DefaultCapacity). The ring grows lazily: a run
// recording fewer events never allocates the full capacity.
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Tracer{cap: capacity}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// record appends one event, overwriting the oldest when full.
func (t *Tracer) record(e Event) {
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.next] = e
	t.next++
	if t.next == t.cap {
		t.next = 0
	}
	t.dropped++
}

// Begin opens a span of kind k on track at time at.
func (t *Tracer) Begin(track int32, at int64, k Kind, arg int64) {
	if t == nil {
		return
	}
	t.record(Event{At: at, Arg: arg, Track: track, Type: TypeBegin, Kind: k})
}

// End closes the most recent open span of kind k on track.
func (t *Tracer) End(track int32, at int64, k Kind, arg int64) {
	if t == nil {
		return
	}
	t.record(Event{At: at, Arg: arg, Track: track, Type: TypeEnd, Kind: k})
}

// Instant records a point event.
func (t *Tracer) Instant(track int32, at int64, k Kind, arg int64) {
	if t == nil {
		return
	}
	t.record(Event{At: at, Arg: arg, Track: track, Type: TypeInstant, Kind: k})
}

// Account stamps that the interval since the previous Account on track
// belongs to cat.
func (t *Tracer) Account(track int32, at int64, cat Category) {
	if t == nil {
		return
	}
	t.record(Event{At: at, Arg: int64(cat), Track: track, Type: TypeInstant, Kind: KindAccount})
}

// NewFlow allocates the next flow id (flow ids start at 1; 0 marks "no
// flow"). Returns 0 on a nil tracer so disabled runs carry no flow ids.
func (t *Tracer) NewFlow() uint64 {
	if t == nil {
		return 0
	}
	t.lastFlow++
	return t.lastFlow
}

// FlowBegin records flow leaving track (a packet injected into the
// mesh).
func (t *Tracer) FlowBegin(track int32, at int64, flow uint64, arg int64) {
	if t == nil || flow == 0 {
		return
	}
	t.record(Event{At: at, Arg: arg, Flow: flow, Track: track, Type: TypeFlowBegin, Kind: KindPacketFlow})
}

// FlowEnd records flow terminating on track (the packet dequeued by the
// receiving node).
func (t *Tracer) FlowEnd(track int32, at int64, flow uint64, arg int64) {
	if t == nil || flow == 0 {
		return
	}
	t.record(Event{At: at, Arg: arg, Flow: flow, Track: track, Type: TypeFlowEnd, Kind: KindPacketFlow})
}

// CountDispatch counts one kernel event dispatch. Dispatches are far
// too frequent to record individually; the total is exported as trace
// metadata.
func (t *Tracer) CountDispatch() {
	if t == nil {
		return
	}
	t.dispatches++
}

// Dispatches returns the kernel event dispatch count.
func (t *Tracer) Dispatches() int64 {
	if t == nil {
		return 0
	}
	return t.dispatches
}

// Dropped returns how many events were overwritten after the ring
// wrapped.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the retained events oldest-first. The kernel's clock
// never runs backward, so the returned slice is sorted by At. The slice
// is freshly assembled when the ring has wrapped; otherwise it aliases
// the tracer's storage — callers must not record while holding it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if t.dropped == 0 {
		return t.events
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}
