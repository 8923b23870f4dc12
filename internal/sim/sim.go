// Package sim is a deterministic discrete-event simulation kernel with a
// process model: simulated processors run as coroutines that cooperate
// with the kernel, so node code reads sequentially (block on a receive,
// advance simulated time for computation) while the kernel keeps a single
// global virtual clock.
//
// Exactly one of the kernel and its processes runs at any moment: each
// process is an iter.Pull coroutine, resumed by the kernel's next and
// parked by its own yield, which the runtime switches between directly
// without the scheduler. Ties in the event queue are broken by schedule
// order, so a simulation is a pure function of its inputs. This package
// plays the role CBS played for the paper: the substrate on which the
// message passing LocusRoute executes.
//
// # Hot path
//
// The kernel dispatches one event per Wait, per channel wake, and per
// scheduled callback, so event dispatch dominates a routing simulation's
// wall clock. Four structural choices keep it cheap:
//
//   - a process switch is a coroutine switch, not a goroutine handoff:
//     no run-queue, no wake-up of an idle P, no futex;
//   - events are pooled on a free list, and process resumes are a
//     dedicated event flavour (a *Process field instead of a closure), so
//     the steady state allocates nothing per event;
//   - events scheduled for the current instant bypass the time-ordered
//     heap into a FIFO: a new event always carries a larger seq than
//     everything already queued, so within the current instant append
//     order is exactly (time, seq) order and a plain list preserves the
//     heap's semantics at O(1) — this is the channel-wake fast path;
//   - Chan.Send wakes exactly one blocked receiver per item instead of
//     all of them, removing the O(waiters) spurious wake/re-park round
//     trips per item that a wake-all loop costs.
package sim

import (
	"fmt"
	"iter"

	"locusroute/internal/tracev"
)

// Time is simulated time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time in seconds with nanosecond precision trimmed to
// microseconds, which is the resolution the experiments report.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a scheduled callback or process resume. proc-events resume
// the process directly, avoiding a closure allocation per Wait; next
// links events on the kernel's immediate FIFO and free list.
type event struct {
	at   Time
	seq  uint64 // tie-break: schedule order
	fn   func()
	proc *Process
	next *event
}

// before reports whether e runs before f: earlier time, or same time and
// scheduled earlier.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It
// replaces container/heap to keep push/pop free of interface conversions
// on the kernel's hottest path.
type eventHeap []*event

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q[l].before(q[least]) {
			least = l
		}
		if r < n && q[r].before(q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Kernel is the simulation engine. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventHeap

	// immHead/immTail are the FIFO of events scheduled for the current
	// instant: each was appended with a seq larger than every event
	// already queued, so list order is (time, seq) order.
	immHead, immTail *event

	free *event // recycled events

	procs  []*Process
	closed bool

	tracer *tracev.Tracer // nil: tracing disabled
}

// NewKernel returns an empty simulation.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// SetTracer attaches an event tracer (nil detaches). The kernel counts
// event dispatches on it and channels record block/wake instants; a nil
// tracer costs one pointer test per site.
func (k *Kernel) SetTracer(tr *tracev.Tracer) { k.tracer = tr }

// newEvent takes an event off the free list (or allocates) and stamps it.
func (k *Kernel) newEvent(at Time, fn func(), proc *Process) *event {
	e := k.free
	if e != nil {
		k.free = e.next
		e.next = nil
	} else {
		e = &event{}
	}
	k.seq++
	e.at, e.seq, e.fn, e.proc = at, k.seq, fn, proc
	return e
}

// release returns an executed event to the free list.
func (k *Kernel) release(e *event) {
	e.fn, e.proc = nil, nil
	e.next = k.free
	k.free = e
}

// schedule enqueues an event at time t (clamped to now). Events for the
// current instant go to the FIFO; future events go to the heap.
func (k *Kernel) schedule(t Time, fn func(), proc *Process) {
	if k.closed {
		return
	}
	if t <= k.now {
		e := k.newEvent(k.now, fn, proc)
		if k.immTail != nil {
			k.immTail.next = e
		} else {
			k.immHead = e
		}
		k.immTail = e
		return
	}
	k.queue.push(k.newEvent(t, fn, proc))
}

// At schedules fn to run in kernel context at time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, fn, nil) }

// next pops the globally earliest event by (time, seq), or nil when both
// queues are empty. A FIFO event runs before the heap top unless the heap
// top is strictly earlier — possible only for same-time events pushed to
// the heap before time advanced onto them, which carry smaller seqs.
func (k *Kernel) next() *event {
	if k.immHead != nil {
		if len(k.queue) > 0 && k.queue[0].before(k.immHead) {
			return k.queue.pop()
		}
		e := k.immHead
		k.immHead = e.next
		if k.immHead == nil {
			k.immTail = nil
		}
		e.next = nil
		return e
	}
	if len(k.queue) > 0 {
		return k.queue.pop()
	}
	return nil
}

// killed is the panic sentinel used to unwind parked processes at
// shutdown.
type killed struct{}

// Process is a simulated thread of control. Its methods must only be
// called from within the process's own body function.
type Process struct {
	Name string
	// Track is the trace track the process's events land on; runtimes
	// that trace set it to their node id. Defaults to tracev.TrackKernel.
	Track  int32
	kernel *Kernel
	// next resumes the process until it parks or finishes; stop unwinds
	// a parked process; yield, called from the body, parks it. A finished
	// process makes next and stop no-ops.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Spawn starts a new process whose body runs fn. The process begins
// parked; it first runs when the kernel reaches its start event (time
// Now). Spawn may be called before Run or from within a running process.
func (k *Kernel) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{Name: name, Track: tracev.TrackKernel, kernel: k}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					// A real panic from node code: iter.Pull re-panics it
					// in the kernel's context, out of Run.
					panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name, r))
				}
			}
		}()
		fn(p)
	})
	k.procs = append(k.procs, p)
	k.schedule(k.now, nil, p)
	return p
}

// Run processes events until the queue is empty, then returns the final
// simulated time. Processes still parked when the queue drains are
// considered blocked forever; Run unwinds them (their deferred functions
// run) and returns. The kernel cannot be reused after Run.
func (k *Kernel) Run() Time {
	for {
		e := k.next()
		if e == nil {
			break
		}
		k.tracer.CountDispatch()
		k.now = e.at
		if p := e.proc; p != nil {
			k.release(e)
			p.next()
		} else {
			fn := e.fn
			k.release(e)
			fn()
		}
	}
	k.closed = true
	// Unwind any parked processes so their coroutines are not leaked:
	// stop makes the pending yield return false, and park panics with the
	// killed sentinel. A process spawned by an unwinding one is stopped
	// too, before it ever runs.
	for i := 0; i < len(k.procs); i++ {
		k.procs[i].stop()
	}
	return k.now
}

// park blocks the process until the kernel resumes it. It must be called
// with a wake event already scheduled (or a waiter registration made);
// parking with no way to wake is a deadlock, which Run resolves by
// unwinding the process when the event queue drains.
func (p *Process) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.kernel.now }

// Wait advances the process's simulated time by d — the primitive that
// models computation taking time. Non-positive d returns immediately.
func (p *Process) Wait(d Time) {
	if d <= 0 {
		return
	}
	k := p.kernel
	k.schedule(k.now+d, nil, p)
	p.park()
}

// Chan is a simulated unbounded FIFO channel. Sends never block and take
// no simulated time (transport delay is modelled by scheduling the Send
// with Kernel.At); receives block the calling process until an item is
// available.
type Chan struct {
	kernel  *Kernel
	items   []any
	waiters []*Process

	// OnDequeue, when set, observes the queue depth at every successful
	// dequeue (Recv or TryRecv), counting the item being taken. It runs
	// before the item is removed and must not touch the channel.
	OnDequeue func(depth int)
}

// NewChan returns an empty channel on k.
func NewChan(k *Kernel) *Chan { return &Chan{kernel: k} }

// Len returns the number of queued items.
func (c *Chan) Len() int { return len(c.items) }

// Send enqueues item and, when receivers are blocked, wakes exactly one —
// the longest-waiting. One item can satisfy only one Recv, so waking the
// rest would buy nothing but a spurious wake/re-park round trip each;
// FIFO wake order keeps delivery deterministic and matches the order the
// wake-all loop delivered in. Send may be called from process context or
// from a kernel event. Recv still re-checks after waking (TryRecv can
// drain the item first), so the one-wake policy cannot lose items.
func (c *Chan) Send(item any) {
	c.items = append(c.items, item)
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		copy(c.waiters, c.waiters[1:])
		c.waiters = c.waiters[:len(c.waiters)-1]
		// Wake via an event so the currently running process keeps
		// running until it parks.
		c.kernel.schedule(c.kernel.now, nil, w)
	}
}

// Recv blocks p until an item is available, then dequeues and returns it.
// Wakeups may be spurious (another receiver took the item first); Recv
// re-checks and re-parks.
func (c *Chan) Recv(p *Process) any {
	for len(c.items) == 0 {
		if tr := c.kernel.tracer; tr != nil {
			tr.Instant(p.Track, int64(c.kernel.now), tracev.KindChanBlock, 0)
		}
		c.waiters = append(c.waiters, p)
		p.park()
		if tr := c.kernel.tracer; tr != nil {
			tr.Instant(p.Track, int64(c.kernel.now), tracev.KindChanWake, int64(len(c.items)))
		}
	}
	if c.OnDequeue != nil {
		c.OnDequeue(len(c.items))
	}
	item := c.items[0]
	c.items = c.items[1:]
	return item
}

// TryRecv dequeues an item if one is available, without blocking.
func (c *Chan) TryRecv() (any, bool) {
	if len(c.items) == 0 {
		return nil, false
	}
	if c.OnDequeue != nil {
		c.OnDequeue(len(c.items))
	}
	item := c.items[0]
	c.items = c.items[1:]
	return item, true
}
