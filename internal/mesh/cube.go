package mesh

import (
	"fmt"

	"locusroute/internal/obs"
	"locusroute/internal/sim"
	"locusroute/internal/tracev"
)

// CBS simulated a general k-ary n-dimensional machine; the paper's
// experiments configure it as a two-dimensional mesh (Network). Cube is
// the general form: nodes are points in a mixed-radix n-dimensional
// torus with one unidirectional (+1 with wraparound) channel per
// dimension per node, deterministic dimension-order wormhole routing and
// the same latency and contention model as Network. It exists for
// topology experiments — e.g. 16 processors as a 4-ary 2-cube versus a
// 2-ary 4-cube (binary hypercube).
type Cube struct {
	kernel *sim.Kernel
	dims   []int
	params Params
	// linkFree[node][dim] is when node's +1 link in dim becomes free.
	linkFree [][]sim.Time
	inbox    []*sim.Chan
	stats    Stats
	rec      *obs.NetRecorder
	tracer   *tracev.Tracer
}

// NewCube builds a network whose shape is the given dimension list
// (e.g. [4, 4] is the paper's mesh, [2, 2, 2, 2] a 16-node hypercube).
func NewCube(k *sim.Kernel, dims []int, params Params) (*Cube, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("mesh: cube needs at least one dimension")
	}
	nodes := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mesh: invalid dimension %d", d)
		}
		nodes *= d
	}
	c := &Cube{
		kernel:   k,
		dims:     append([]int(nil), dims...),
		params:   params,
		linkFree: make([][]sim.Time, nodes),
		inbox:    make([]*sim.Chan, nodes),
	}
	for i := range c.inbox {
		c.inbox[i] = sim.NewChan(k)
		c.linkFree[i] = make([]sim.Time, len(dims))
	}
	return c, nil
}

// Stats returns the accumulated statistics.
func (c *Cube) Stats() Stats { return c.stats }

// SetRecorder attaches (or with nil detaches) an observability recorder.
func (c *Cube) SetRecorder(rec *obs.NetRecorder) {
	c.rec = rec
	hookInboxes(c.inbox, rec)
}

// SetTracer attaches (or with nil detaches) an event tracer.
func (c *Cube) SetTracer(tr *tracev.Tracer) { c.tracer = tr }

// Inbox returns the receive queue of node id.
func (c *Cube) Inbox(id int) *sim.Chan { return c.inbox[id] }

// coord returns node id's position along dimension dim (mixed radix,
// dimension 0 varying fastest).
func (c *Cube) coord(id, dim int) int {
	for d := 0; d < dim; d++ {
		id /= c.dims[d]
	}
	return id % c.dims[dim]
}

// step returns the node one hop in +dim from id (with wraparound).
func (c *Cube) step(id, dim int) int {
	stride := 1
	for d := 0; d < dim; d++ {
		stride *= c.dims[d]
	}
	k := c.dims[dim]
	pos := c.coord(id, dim)
	next := (pos + 1) % k
	return id + (next-pos)*stride
}

// Distance returns the deterministic-route hop count from a to b:
// the sum over dimensions of the forward wrap distances.
func (c *Cube) Distance(a, b int) int {
	hops := 0
	for dim := range c.dims {
		k := c.dims[dim]
		hops += (c.coord(b, dim) - c.coord(a, dim) + k) % k
	}
	return hops
}

// Send transmits a packet exactly as Network.Send does, but routing in
// dimension order across all n dimensions.
func (c *Cube) Send(p *sim.Process, from, to int, payload any, size int) {
	if size <= 0 {
		size = 1
	}
	pkt := &Packet{From: from, To: to, Payload: payload, Size: size, SentAt: p.Now()}
	if tr := c.tracer; tr != nil {
		pkt.Flow = tr.NewFlow()
		tr.FlowBegin(int32(from), int64(pkt.SentAt), pkt.Flow, int64(size))
	}
	p.Wait(c.params.ProcessTime)

	cursor := p.Now()
	L := sim.Time(size)
	node := from
	hops := 0
	for dim := range c.dims {
		k := c.dims[dim]
		steps := (c.coord(to, dim) - c.coord(node, dim) + k) % k
		for s := 0; s < steps; s++ {
			free := c.linkFree[node][dim]
			start := cursor
			if free > start {
				c.stats.ContentionDelay += free - start
				start = free
			}
			c.rec.ObserveLinkDelay(start - cursor)
			c.linkFree[node][dim] = start + c.params.HopTime*(L+1)
			cursor = start + c.params.HopTime
			hops++
			node = c.step(node, dim)
		}
	}

	arrive := cursor + c.params.HopTime*L
	pkt.ArriveAt = arrive
	if from == to {
		c.stats.SelfPackets++
		c.stats.SelfBytes += int64(size)
	} else {
		c.stats.Packets++
		c.stats.Bytes += int64(size)
		c.stats.HopBytes += int64(size) * int64(hops)
		c.stats.TotalLatency += arrive - pkt.SentAt
		c.rec.ObserveLatency(arrive - pkt.SentAt)
	}

	inbox := c.inbox[to]
	if tr := c.tracer; tr != nil {
		c.kernel.At(arrive, func() {
			tr.Instant(int32(to), int64(arrive), tracev.KindDeliver, int64(size))
			inbox.Send(pkt)
		})
		return
	}
	c.kernel.At(arrive, func() { inbox.Send(pkt) })
}

// ChargeReceive charges the receive-side copy, as Network.ChargeReceive.
func (c *Cube) ChargeReceive(p *sim.Process) { p.Wait(c.params.ProcessTime) }
