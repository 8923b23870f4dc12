// Package mesh simulates the interconnection network of the paper's CBS
// substrate: a k-ary n-cube. Nodes are the points of a mixed-radix
// n-dimensional torus (dimension 0 varying fastest in the node id); each
// node has one outgoing unidirectional channel per dimension (+1 with
// wraparound), channels are one byte wide, packets follow deterministic
// dimension-order wormhole routes, and the network models contention.
// The paper's experiments configure it as a two-dimensional mesh
// ([4, 4] for 16 processors); [2, 2, 2, 2] is a 16-node binary
// hypercube.
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
//
// Every network is observed: Stats carries the packet latency, link delay
// and receive-queue depth histograms beside the traffic counters.
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

	// Latency is the end-to-end latency (send to tail arrival) of every
	// link-crossing packet, in simulated nanoseconds.
	Latency obs.Histogram
	// LinkDelay is the head-blocking delay at every link traversal (zero
	// when the link was free), in simulated nanoseconds.
	LinkDelay obs.Histogram
	// QueueDepth is the receive-queue depth at every dequeue, counting
	// the packet being taken.
	QueueDepth obs.Histogram
}

// Network is the simulated k-ary n-cube interconnect.
type Network struct {
	kernel *sim.Kernel
	dims   []int
	params Params
	// linkFree[node*len(dims)+dim] is when node's +1 link in dim becomes
	// free.
	linkFree []sim.Time
	inbox    []*sim.Chan
	stats    Stats
	tracer   *tracev.Tracer
}

// New builds a network of the given shape on kernel k: dims lists the
// node count along each dimension (e.g. [4, 4] is the paper's mesh,
// [2, 2, 2, 2] a 16-node hypercube).
func New(k *sim.Kernel, dims []int, params Params) (*Network, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("mesh: a network needs at least one dimension")
	}
	nodes := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mesh: invalid dimensions %v", dims)
		}
		nodes *= d
	}
	n := &Network{
		kernel:   k,
		dims:     append([]int(nil), dims...),
		params:   params,
		linkFree: make([]sim.Time, nodes*len(dims)),
		inbox:    make([]*sim.Chan, nodes),
	}
	depth := func(d int) { n.stats.QueueDepth.Observe(int64(d)) }
	for i := range n.inbox {
		n.inbox[i] = sim.NewChan(k)
		n.inbox[i].OnDequeue = depth
	}
	return n, nil
}

// Stats returns the accumulated network statistics.
func (n *Network) Stats() Stats { return n.stats }

// SetTracer attaches (or with nil detaches) an event tracer: every packet
// (self-sends included) gets a flow id, a flow-begin at injection on the
// sender's track, and a delivery instant on the receiver's track when the
// tail arrives.
func (n *Network) SetTracer(tr *tracev.Tracer) { n.tracer = tr }

// Inbox returns the receive queue of node id. Nodes block on it with
// Recv; every queued item is a *Packet.
func (n *Network) Inbox(id int) *sim.Chan { return n.inbox[id] }

// Distance returns the deterministic-route hop count from a to b on the
// unidirectional torus: the sum over dimensions of the forward wrap
// distances.
func (n *Network) Distance(a, b int) int {
	hops, stride := 0, 1
	for _, k := range n.dims {
		hops += (b/stride%k - a/stride%k + k) % k
		stride *= k
	}
	return hops
}

// Send transmits a packet of size bytes from the process p (which must be
// running on node from) to node to. The sender is charged ProcessTime (the
// copy onto the network); the packet then worms through the route's
// links in dimension order, contending for each, and is delivered into
// the destination inbox when its tail arrives. Self-sends traverse no
// links but still pay both ProcessTime charges and the L-byte
// serialisation; they count toward Stats.SelfPackets/SelfBytes, never
// interconnect traffic.
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
	node, stride, hops := from, 1, 0
	for dim, k := range n.dims {
		pos := node / stride % k
		for steps := (to/stride%k - pos + k) % k; steps > 0; steps-- {
			link := node*len(n.dims) + dim
			start := max(cursor, n.linkFree[link])
			n.stats.ContentionDelay += start - cursor
			n.stats.LinkDelay.Observe(int64(start - cursor))
			// Link is held until the tail (L bytes) has passed.
			n.linkFree[link] = start + n.params.HopTime*(L+1)
			cursor = start + n.params.HopTime
			hops++
			if pos++; pos == k {
				pos, node = 0, node-(k-1)*stride
			} else {
				node += stride
			}
		}
		stride *= k
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
		n.stats.Latency.Observe(int64(arrive - pkt.SentAt))
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
