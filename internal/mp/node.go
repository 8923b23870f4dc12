package mp

import (
	"fmt"

	"locusroute/internal/geom"
	"locusroute/internal/mesh"
	"locusroute/internal/msg"
	"locusroute/internal/obs"
	"locusroute/internal/sim"
	"locusroute/internal/tracev"
)

// node is one simulated processor of the message passing router: the
// discrete-event process around a Proto, or around a strict ownership
// state when the cost array is not replicated (Section 4.1). It charges
// the compute model for every operation, transports packets over the
// simulated mesh, and implements the inter-iteration barrier (Done to
// node 0, Continue back).
// Routing scratch state lives inside the Proto (one route.Scratch that
// the run's nodes share), so the node gets the allocation-free kernel
// without owning it itself.
type node struct {
	id    int
	r     *runner
	p     *sim.Process
	proto *Proto // nil under strict ownership
	wires []int

	// strict is the strict region ownership state (Section 4.1); nil for
	// replicated views.
	strict *strictState

	dones     int // barrier coordinator only: Done packets this iteration
	continues int // Continue packets received so far

	// grant holds a received wire grant not yet consumed (dynamic wire
	// assignment only); granted distinguishes a pending zero grant.
	grant   uint16
	granted bool

	// spent is this node's time ledger: the simulated time charged to
	// each tracev category up to the stamp last. Every time-advancing
	// call below is followed by exactly one account, so the four
	// categories partition the node's whole life. inBarrier steers Recv
	// park time between the blocked and barrier categories.
	spent     [tracev.CatBarrier + 1]sim.Time
	last      sim.Time
	inBarrier bool

	// tr is the event tracer (nil when tracing is off); track is this
	// node's trace track id.
	tr    *tracev.Tracer
	track int32
}

func newNode(id int, r *runner) *node {
	n := &node{
		id:    id,
		r:     r,
		wires: r.asn.WiresOf(id),
		tr:    r.cfg.Trace,
		track: int32(id),
	}
	if r.cfg.StrictOwnership {
		n.strict = newStrictState(r.part.Region(id), r.circ.Grid)
		return n
	}
	n.proto = newProto(id, r.circ, r.part, r.cfg.Strategy, r.cfg.Router, r.paths, r.scratch, r.owners)
	n.proto.Structure = r.cfg.Packets
	n.proto.SetTruth(r.truth)
	return n
}

// account charges the interval ending now to cat on the ledger and, in
// lockstep, stamps it on the trace — the invariant both the per-node
// breakdown and the critical-path walk rely on.
func (n *node) account(cat tracev.Category) {
	now := n.p.Now()
	n.spent[cat] += now - n.last
	n.last = now
	n.tr.Account(n.track, int64(now), cat)
}

// wait charges d of work to cat.
func (n *node) wait(d sim.Time, cat tracev.Category) {
	n.p.Wait(d)
	n.account(cat)
}

// times renders the ledger as the node's observability breakdown.
func (n *node) times() obs.NodeTimes {
	t := obs.NodeTimes{
		Node:      n.id,
		ComputeNs: int64(n.spent[tracev.CatCompute]),
		PacketNs:  int64(n.spent[tracev.CatPacket]),
		BlockedNs: int64(n.spent[tracev.CatBlocked]),
		BarrierNs: int64(n.spent[tracev.CatBarrier]),
	}
	t.TotalNs = t.ComputeNs + t.PacketNs + t.BlockedNs + t.BarrierNs
	return t
}

// run is the node's process body: Iterations rounds of routing with a
// global barrier between rounds. The round itself depends on the cost
// array distribution and the wire assignment.
func (n *node) run(p *sim.Process) {
	n.p = p
	p.Track = n.track
	round := n.runStatic
	switch {
	case n.strict != nil:
		round = n.runStrict
	case n.r.cfg.DynamicWires:
		round = n.runDynamic
	}
	for iter := 0; iter < n.r.cfg.Router.Iterations; iter++ {
		n.tr.Begin(n.track, int64(p.Now()), tracev.KindIteration, int64(iter))
		round(iter)
		n.barrier(iter)
		n.tr.End(n.track, int64(p.Now()), tracev.KindIteration, int64(iter))
	}
	n.r.finish[n.id] = p.Now()
}

// runStatic routes every statically assigned wire once through the
// replicated-view protocol.
func (n *node) runStatic(iter int) {
	st := n.r.cfg.Strategy
	ahead := n.r.cfg.RequestAhead
	// Prefill the receiver initiated lookahead window.
	if st.ReqRmtData > 0 {
		for k := 0; k < ahead && k < len(n.wires); k++ {
			n.transmit(n.proto.NoteUpcoming(n.wires[k]))
		}
	}
	for i, wi := range n.wires {
		n.drain()
		if st.ReqRmtData > 0 && i+ahead < len(n.wires) {
			n.transmit(n.proto.NoteUpcoming(n.wires[i+ahead]))
		}
		if st.Blocking {
			n.blockUntil(int64(n.proto.Outstanding), func() bool { return n.proto.Outstanding == 0 })
		}
		n.routeWire(wi, iter)
		n.transmit(n.proto.AfterWire())
	}
}

// runDynamic is the dynamic wire assignment ablation (Section 4.2, first
// scheme): processors request wires from node 0 over the network; node 0
// services requests only when it checks its queue between its own wires,
// which is exactly the latency problem the paper describes.
func (n *node) runDynamic(iter int) {
	for {
		n.drain()
		wi := n.fetchDynamicWire()
		if wi < 0 {
			return
		}
		n.routeWire(wi, iter)
		n.transmit(n.proto.AfterWire())
	}
}

// fetchDynamicWire obtains the next wire: node 0 takes from the shared
// counter locally; everyone else asks node 0 and blocks for the grant.
func (n *node) fetchDynamicWire() int {
	if n.id == 0 {
		return n.r.takeWire()
	}
	n.send(0, &msg.Message{Kind: msg.KindReqWire})
	n.blockUntil(1, func() bool { return n.granted })
	n.granted = false
	if n.grant == msg.WireGrantDone {
		return -1
	}
	return int(n.grant)
}

// blockUntil receives and handles packets until done reports true,
// inside a blocked span tagged arg when it has to wait at all.
func (n *node) blockUntil(arg int64, done func() bool) {
	if done() {
		return
	}
	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindBlocked, arg)
	for !done() {
		n.recvOne()
	}
	n.tr.End(n.track, int64(n.p.Now()), tracev.KindBlocked, 0)
}

// routeWire routes one wire through the protocol, charging the compute
// model between the phases so the commit becomes visible — and the
// occupancy contribution is measured — at the virtual time the routing
// computation completes.
func (n *node) routeWire(wi, iter int) {
	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindRouteWire, int64(wi))
	perf := n.r.cfg.Perf
	ripped := n.proto.RipUpWire(wi, iter)
	n.wait(perf.WriteTime(ripped), tracev.CatCompute)
	pw := n.proto.EvaluateWire(wi)
	n.wait(perf.WireOverhead+perf.EvalTime(pw.CellsExamined), tracev.CatCompute)
	n.r.lastCost[wi] = n.proto.CommitWire(wi, pw)
	n.wait(perf.WriteTime(pw.Path.Len()), tracev.CatCompute)
	n.r.cells += int64(pw.CellsExamined)
	n.tr.End(n.track, int64(n.p.Now()), tracev.KindRouteWire, int64(wi))
}

// transmit charges scan and assembly time and sends each outbound packet.
func (n *node) transmit(outs []Outbound) {
	n.wait(n.r.cfg.Perf.ScanTime(n.proto.TakeScanWork()), tracev.CatPacket)
	for _, out := range outs {
		n.send(out.To, out.Msg)
	}
}

// drain handles every message already queued without blocking.
func (n *node) drain() {
	inbox := n.r.net.Inbox(n.id)
	for {
		item, ok := inbox.TryRecv()
		if !ok {
			return
		}
		n.handle(item.(*mesh.Packet))
	}
}

// recvOne blocks for one message and handles it. Time parked in Recv is
// blocked-on-receive, or barrier wait when inside the barrier.
func (n *node) recvOne() {
	item := n.r.net.Inbox(n.id).Recv(n.p)
	cat := tracev.CatBlocked
	if n.inBarrier {
		cat = tracev.CatBarrier
	}
	n.account(cat)
	n.handle(item.(*mesh.Packet))
}

// send encodes and transmits one protocol message, charging assembly time
// and recording per-kind traffic.
func (n *node) send(to int, m *msg.Message) {
	buf, err := m.Encode()
	if err != nil {
		panic(fmt.Sprintf("mp: node %d encoding %v: %v", n.id, m.Kind, err))
	}
	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindSendPacket, int64(m.Kind))
	n.wait(n.r.cfg.Perf.CopyTime(len(buf)), tracev.CatPacket)
	n.r.bytesByKind[m.Kind] += int64(len(buf))
	n.r.packetsByKind[m.Kind]++
	n.r.net.Send(n.p, n.id, to, buf, len(buf))
	n.account(tracev.CatPacket) // the network copy inside Send
	n.tr.End(n.track, int64(n.p.Now()), tracev.KindSendPacket, int64(m.Kind))
}

// handle dispatches one received packet: barrier, wire distribution and
// strict task kinds are the runtime's own; everything else goes to the
// protocol, whose responses are sent back out. Reception, disassembly
// and application costs are charged.
func (n *node) handle(pkt *mesh.Packet) {
	n.tr.FlowEnd(n.track, int64(n.p.Now()), pkt.Flow, int64(pkt.Size))
	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindHandlePacket, int64(pkt.Size))
	n.r.net.ChargeReceive(n.p)
	n.account(tracev.CatPacket)
	buf := pkt.Payload.([]byte)
	n.wait(n.r.cfg.Perf.CopyTime(len(buf)), tracev.CatPacket)
	m, err := msg.Decode(buf)
	if err != nil {
		panic(fmt.Sprintf("mp: node %d decoding packet from %d: %v", n.id, pkt.From, err))
	}
	switch m.Kind {
	case msg.KindDone:
		n.dones++
	case msg.KindContinue:
		n.continues++
	case msg.KindReqWire:
		wi := n.r.takeWire()
		grant := msg.WireGrantDone
		if wi >= 0 {
			grant = uint16(wi)
		}
		n.send(pkt.From, &msg.Message{Kind: msg.KindWireGrant, Seq: grant})
	case msg.KindWireGrant:
		n.grant = m.Seq
		n.granted = true
	case msg.KindPassTask:
		wi, initiator := msg.UnpackTask(m.Seq)
		cur := geom.Pt(m.Region.X0, m.Region.Y0)
		tgt := geom.Pt(m.Region.X1, m.Region.Y1)
		n.processTask(cur, tgt, wi, initiator)
	case msg.KindSegDone:
		n.strict.outstanding--
	default:
		outs := n.proto.Handle(pkt.From, m)
		if m.Kind.IsData() {
			n.wait(n.r.cfg.Perf.WriteTime(len(m.Vals)), tracev.CatPacket)
		} else if m.Kind == msg.KindSendRmtWire {
			n.wait(n.r.cfg.Perf.WriteTime(m.Region.Area()), tracev.CatPacket)
		}
		n.transmit(outs)
	}
	n.tr.End(n.track, int64(n.p.Now()), tracev.KindHandlePacket, int64(pkt.Size))
}

// barrier synchronises all nodes between iterations: everyone reports
// Done to node 0, which broadcasts Continue. While waiting, nodes keep
// servicing requests so no processor deadlocks behind the barrier.
func (n *node) barrier(iter int) {
	n.inBarrier = true
	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindBarrier, int64(iter))
	defer func() {
		n.inBarrier = false
		n.tr.End(n.track, int64(n.p.Now()), tracev.KindBarrier, int64(iter))
	}()
	if n.id == 0 {
		for n.dones < n.r.cfg.Procs-1 {
			n.recvOne()
		}
		n.dones = 0
		n.r.wireCounter = 0 // refill the dynamic wire supply
		// Zero the per-wire path costs for the next iteration: strict
		// ownership accumulates a wire's cost over its segments, while
		// a replicated-view node overwrites each wire's slot anyway.
		if iter+1 < n.r.cfg.Router.Iterations {
			clear(n.r.lastCost)
		}
		for proc := 1; proc < n.r.cfg.Procs; proc++ {
			n.send(proc, &msg.Message{Kind: msg.KindContinue, Seq: uint16(iter)})
		}
		return
	}
	n.send(0, &msg.Message{Kind: msg.KindDone, Seq: uint16(iter)})
	for n.continues <= iter {
		n.recvOne()
	}
}
