// Package mesh simulates the interconnection network of the paper's CBS
// substrate: a k-ary 2-dimensional machine with deterministic wormhole
// routing, unidirectional channels (each processor has outgoing links to
// two of its four neighbours: +X and +Y, with wraparound), one-byte-wide
// channels, and network contention.
//
// With no contention, the total time for a packet of L bytes to travel D
// hops is
//
//	2*ProcessTime + HopTime*(D + L)
//
// exactly the paper's Section 2.1 formula. ProcessTime is charged to the
// sending processor when the message is copied onto the network and to the
// receiving processor when it is copied off (callers charge the receive
// side via ChargeReceive when they dequeue). Contention is modelled per
// unidirectional link: a wormhole packet holds each link on its path until
// its tail has passed, and a head that arrives at a busy link waits.
package mesh

import (
	"fmt"

	"locusroute/internal/obs"
	"locusroute/internal/sim"
	"locusroute/internal/tracev"
)

// Params holds the network timing constants.
type Params struct {
	// HopTime is the time for one byte to travel one hop (paper: 100 ns,
	// modelling the Ametek Series 2010).
	HopTime sim.Time
	// ProcessTime is the time for an entire message to be copied between
	// a processor node and the network (paper: 2000 ns).
	ProcessTime sim.Time
}

// DefaultParams returns the Ametek Series 2010 constants used throughout
// the paper.
func DefaultParams() Params {
	return Params{HopTime: 100 * sim.Nanosecond, ProcessTime: 2000 * sim.Nanosecond}
}

// Packet is a message in flight or delivered.
type Packet struct {
	From, To int
	Payload  any
	Size     int // bytes on the wire
	SentAt   sim.Time
	ArriveAt sim.Time
	// Flow is the trace flow id joining this packet's injection to its
	// dequeue; 0 when tracing is off.
	Flow uint64
}

// Stats accumulates network-level accounting for a run. Packets and
// Bytes count only traffic that actually crosses links: a self-send
// (from == to) traverses zero links, so it is tallied separately in
// SelfPackets/SelfBytes and never inflates interconnect traffic.
type Stats struct {
	Packets         int64
	Bytes           int64
	HopBytes        int64    // bytes x hops: total channel occupancy
	SelfPackets     int64    // local deliveries (from == to), zero links crossed
	SelfBytes       int64    // bytes of those local deliveries
	ContentionDelay sim.Time // total head blocking time across packets
	TotalLatency    sim.Time // sum of (arrive - sent) over link-crossing packets
}

// MBytes returns total traffic in megabytes (10^6 bytes, as the paper's
// tables report).
func (s Stats) MBytes() float64 { return float64(s.Bytes) / 1e6 }

// Interconnect is the transport surface node runtimes program against;
// both the 2-D Network and the general k-ary n-dimensional Cube satisfy
// it, so topology is a configuration choice.
type Interconnect interface {
	// Send transmits a packet of size bytes from the calling process's
	// node to another node.
	Send(p *sim.Process, from, to int, payload any, size int)
	// ChargeReceive charges the receive-side copy for one dequeued
	// packet.
	ChargeReceive(p *sim.Process)
	// Inbox returns node id's receive queue of *Packet items.
	Inbox(id int) *sim.Chan
	// Stats returns the accumulated network statistics.
	Stats() Stats
	// Distance returns the deterministic-route hop count between nodes.
	Distance(a, b int) int
	// SetRecorder attaches an observability recorder that receives
	// packet latencies, per-link contention delays, and receive-queue
	// depths at dequeue. A nil recorder detaches (the default).
	SetRecorder(rec *obs.NetRecorder)
	// SetTracer attaches an event tracer: every packet (self-sends
	// included) gets a flow id, a flow-begin at injection on the
	// sender's track, and a delivery instant on the receiver's track
	// when the tail arrives. A nil tracer detaches (the default).
	SetTracer(tr *tracev.Tracer)
}

var (
	_ Interconnect = (*Network)(nil)
	_ Interconnect = (*Cube)(nil)
)

// Network is the simulated interconnect for PX x PY nodes.
type Network struct {
	kernel *sim.Kernel
	px, py int
	params Params
	// linkFree[node][dim] is the time the outgoing link of node in
	// dimension dim (0 = +X, 1 = +Y) becomes free.
	linkFree [][2]sim.Time
	inbox    []*sim.Chan
	stats    Stats
	rec      *obs.NetRecorder
	tracer   *tracev.Tracer
}

// New builds a network of px x py nodes on kernel k.
func New(k *sim.Kernel, px, py int, params Params) (*Network, error) {
	if px <= 0 || py <= 0 {
		return nil, fmt.Errorf("mesh: invalid dimensions %dx%d", px, py)
	}
	n := &Network{
		kernel:   k,
		px:       px,
		py:       py,
		params:   params,
		linkFree: make([][2]sim.Time, px*py),
		inbox:    make([]*sim.Chan, px*py),
	}
	for i := range n.inbox {
		n.inbox[i] = sim.NewChan(k)
	}
	return n, nil
}

// Stats returns the accumulated network statistics.
func (n *Network) Stats() Stats { return n.stats }

// SetRecorder attaches (or with nil detaches) an observability recorder.
// Queue-depth observation is hooked into every inbox's dequeue path.
func (n *Network) SetRecorder(rec *obs.NetRecorder) {
	n.rec = rec
	hookInboxes(n.inbox, rec)
}

// SetTracer attaches (or with nil detaches) an event tracer.
func (n *Network) SetTracer(tr *tracev.Tracer) { n.tracer = tr }

// hookInboxes points every inbox's OnDequeue at the recorder's
// queue-depth histogram (or unhooks on a nil recorder).
func hookInboxes(inboxes []*sim.Chan, rec *obs.NetRecorder) {
	for _, c := range inboxes {
		if rec == nil {
			c.OnDequeue = nil
			continue
		}
		c.OnDequeue = rec.ObserveQueueDepth
	}
}

// Inbox returns the receive queue of node id. Nodes block on it with
// Recv; every queued item is a *Packet.
func (n *Network) Inbox(id int) *sim.Chan { return n.inbox[id] }

// Distance returns the deterministic-route hop count from a to b on the
// unidirectional torus: X hops (wrapping in +X) plus Y hops (wrapping in
// +Y).
func (n *Network) Distance(a, b int) int {
	ax, ay := a%n.px, a/n.px
	bx, by := b%n.px, b/n.px
	return (bx-ax+n.px)%n.px + (by-ay+n.py)%n.py
}

// Send transmits a packet of size bytes from the process p (which must be
// running on node from) to node to. The sender is charged ProcessTime (the
// copy onto the network); the packet then worms through the +X links and
// +Y links of the route, contending for each, and is delivered into the
// destination inbox when its tail arrives. Self-sends traverse no links
// but still pay both ProcessTime charges and the L-byte serialisation;
// they count toward Stats.SelfPackets/SelfBytes, never interconnect
// traffic.
func (n *Network) Send(p *sim.Process, from, to int, payload any, size int) {
	if size <= 0 {
		size = 1
	}
	pkt := &Packet{From: from, To: to, Payload: payload, Size: size, SentAt: p.Now()}
	if tr := n.tracer; tr != nil {
		pkt.Flow = tr.NewFlow()
		tr.FlowBegin(int32(from), int64(pkt.SentAt), pkt.Flow, int64(size))
	}

	// Sender busy copying the message onto the network.
	p.Wait(n.params.ProcessTime)

	// Head traverses the deterministic route, waiting at busy links.
	cursor := p.Now()
	L := sim.Time(size)
	fx, fy := from%n.px, from/n.px
	tx, ty := to%n.px, to/n.px
	hops := 0
	step := func(node int, dim int) int {
		free := n.linkFree[node][dim]
		start := cursor
		if free > start {
			n.stats.ContentionDelay += free - start
			start = free
		}
		n.rec.ObserveLinkDelay(start - cursor)
		// Link is held until the tail (L bytes) has passed.
		n.linkFree[node][dim] = start + n.params.HopTime*(L+1)
		cursor = start + n.params.HopTime
		hops++
		if dim == 0 {
			return node - node%n.px + (node%n.px+1)%n.px // +X, same row
		}
		return ((node/n.px+1)%n.py)*n.px + node%n.px // +Y, same column
	}
	node := from
	for x := fx; x != tx; x = (x + 1) % n.px {
		node = step(node, 0)
	}
	for y := fy; y != ty; y = (y + 1) % n.py {
		node = step(node, 1)
	}

	// Tail streams in behind the head.
	arrive := cursor + n.params.HopTime*L
	pkt.ArriveAt = arrive

	if from == to {
		n.stats.SelfPackets++
		n.stats.SelfBytes += int64(size)
	} else {
		n.stats.Packets++
		n.stats.Bytes += int64(size)
		n.stats.HopBytes += int64(size) * int64(hops)
		n.stats.TotalLatency += arrive - pkt.SentAt
		n.rec.ObserveLatency(arrive - pkt.SentAt)
	}

	inbox := n.inbox[to]
	if tr := n.tracer; tr != nil {
		n.kernel.At(arrive, func() {
			tr.Instant(int32(to), int64(arrive), tracev.KindDeliver, int64(size))
			inbox.Send(pkt)
		})
		return
	}
	n.kernel.At(arrive, func() { inbox.Send(pkt) })
}

// ChargeReceive charges the receiving processor the ProcessTime copy cost
// for one dequeued packet. Node loops call it after taking a packet off
// their inbox, completing the 2*ProcessTime of the latency formula.
func (n *Network) ChargeReceive(p *sim.Process) {
	p.Wait(n.params.ProcessTime)
}
