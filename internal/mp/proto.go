package mp

import (
	"fmt"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/msg"
	"locusroute/internal/route"
)

// Outbound is a protocol message the runtime must transmit.
type Outbound struct {
	To  int
	Msg *msg.Message
}

// PacketStructure selects the update packet layout (Section 4.3.1 of the
// paper). The paper chooses the bounding-box structure; the two
// alternatives it discusses are kept as ablations, valid for pure sender
// initiated schedules.
type PacketStructure int

const (
	// StructureBbox (the paper's choice): the bounding box of all
	// changes in an owned region, scanned from the delta array.
	StructureBbox PacketStructure = iota
	// StructureWireBased: one header-only packet per straight run of
	// each routed or ripped-up wire. Compact per segment but performs no
	// cancellation — every rip-up and reroute is transmitted.
	StructureWireBased
	// StructureWholeRegion: the entire owned region's delta values,
	// zeros included. Trivial to assemble and disassemble but wasteful
	// on the network.
	StructureWholeRegion
)

// String names the structure.
func (s PacketStructure) String() string {
	switch s {
	case StructureBbox:
		return "bbox"
	case StructureWireBased:
		return "wire-based"
	case StructureWholeRegion:
		return "whole-region"
	}
	return fmt.Sprintf("PacketStructure(%d)", int(s))
}

// Proto is the transport-independent protocol state of one message
// passing LocusRoute processor: the full (possibly stale) view of the
// cost array, the delta array of unsent changes, the dirty bounds that
// drive SendLocData broadcasts and ReqRmtData responses, and the counters
// of every update mechanism. The discrete-event node (node.go) drives it
// and charges the compute model for each step.
//
// Proto is not safe for concurrent use; each node confines a Proto to
// one processor's thread of control.
type Proto struct {
	ID       int
	Strategy Strategy
	Part     geom.Partition
	// Structure selects the SendRmtData packet layout.
	Structure PacketStructure

	circ  *circuit.Circuit
	truth *costarray.CostArray
	view  *costarray.CostArray
	delta *costarray.Delta

	router route.Params
	// paths holds each wire's most recent routing, indexed like
	// circ.Wires and consulted at rip-up time.
	paths []route.Path
	// scratch is the routing kernel state, which the nodes of one DES run
	// share with owners: the kernel runs one at a time, routings never yield.
	scratch *route.Scratch

	// owners answers Part.Owner for the cells a commit or rip-up touches;
	// owned gathers the bounding box of the owned ones until the path is
	// done, when markOwn takes it once.
	owners   geom.OwnerTable
	owned    geom.Rect
	ownDirty geom.Rect
	reqDirty []geom.Rect

	touch       []int
	reqFrom     []int
	Outstanding int // ReqRmtData responses not yet received

	sinceSLD, sinceSRD int

	// wireOps holds, per remote region, the straight runs of paths
	// committed or ripped since the last update — the wire-based packet
	// structure's send queue (StructureWireBased only).
	wireOps [][]wireOp

	// Scan work accumulated by the most recent operation, charged as
	// packet time by the node (reset by TakeScanWork).
	scanWork int
}

// wireOp is one straight run of a path inside one remote region.
type wireOp struct {
	run   geom.Rect
	ripUp bool
}

// newProto builds the protocol state for processor id around paths, the
// per-wire path slice it records its routings in, scratch and owners.
func newProto(id int, circ *circuit.Circuit, part geom.Partition, st Strategy, router route.Params,
	paths []route.Path, scratch *route.Scratch, owners geom.OwnerTable) *Proto {
	return &Proto{
		ID:       id,
		Strategy: st,
		Part:     part,
		circ:     circ,
		view:     costarray.New(circ.Grid),
		delta:    costarray.NewDelta(part),
		router:   router,
		paths:    paths,
		scratch:  scratch,
		owners:   owners,
		reqDirty: make([]geom.Rect, part.Procs()),
		touch:    make([]int, part.Procs()),
		reqFrom:  make([]int, part.Procs()),
	}
}

// SetTruth installs the ground-truth array: where every commit and
// rip-up lands immediately, regardless of any view staleness, so quality
// is measured on the real circuit state. The nodes of one run share it;
// the DES kernel serialises their execution. Must be called before
// routing.
func (pr *Proto) SetTruth(t *costarray.CostArray) { pr.truth = t }

// TakeScanWork returns and resets the delta/extract scan work since the
// last call.
func (pr *Proto) TakeScanWork() int {
	w := pr.scanWork
	pr.scanWork = 0
	return w
}

// protoCommitView writes through to the view, the ground truth, and the
// dirty/delta tracking.
type protoCommitView struct{ pr *Proto }

func (v protoCommitView) AddCell(i int, d int32) {
	pr := v.pr
	pr.view.Cells()[i] += d
	pr.truth.Cells()[i] += d
	c := pr.view.Grid().Point(i)
	if pr.owners.Owner(c.X, c.Y) == pr.ID {
		pr.owned = pr.owned.AddPoint(c)
	} else if pr.Structure != StructureWireBased {
		// The wire-based structure transmits whole runs (recorded by
		// recordWireOps), so remote changes bypass the delta array.
		pr.delta.Add(c.X, c.Y, d)
	}
}

// markOwned hands the owned cells of the path just committed or ripped up
// to markOwn as one box: the union of their 1x1 boxes.
func (pr *Proto) markOwned() {
	pr.markOwn(pr.owned)
	pr.owned = geom.Rect{}
}

// recordWireOps splits a committed or ripped path into straight runs per
// remote region, queueing them for the wire-based packet structure.
func (pr *Proto) recordWireOps(path route.Path, ripUp bool) {
	if pr.wireOps == nil {
		pr.wireOps = make([][]wireOp, pr.Part.Procs())
	}
	flush := func(owner int, run geom.Rect) {
		if owner != pr.ID && !run.Empty() {
			pr.wireOps[owner] = append(pr.wireOps[owner], wireOp{run: run, ripUp: ripUp})
		}
	}
	var run geom.Rect
	owner := -1
	var prev geom.Point
	g := pr.view.Grid()
	for i, cell := range path.Cells {
		c := g.Point(int(cell))
		o := pr.owners.Owner(c.X, c.Y)
		extends := i > 0 && o == owner && adjacentCollinear(run, prev, c)
		if !extends {
			flush(owner, run)
			run = geom.Rect{}
			owner = o
		}
		run = run.AddPoint(c)
		prev = c
	}
	flush(owner, run)
}

// adjacentCollinear reports whether adding c after prev keeps the run a
// straight horizontal or vertical segment.
func adjacentCollinear(run geom.Rect, prev, c geom.Point) bool {
	if prev.Manhattan(c) != 1 {
		return false
	}
	ext := run.AddPoint(c)
	return ext.Dx() == 1 || ext.Dy() == 1
}

func (pr *Proto) markOwn(bb geom.Rect) {
	pr.ownDirty = pr.ownDirty.Union(bb)
	for i := range pr.reqDirty {
		if i != pr.ID {
			pr.reqDirty[i] = pr.reqDirty[i].Union(bb)
		}
	}
}

// PendingWire is an evaluated-but-not-yet-committed wire routing, carried
// between EvaluateWire and CommitWire so the runtime can charge
// evaluation time before the commit becomes visible.
type PendingWire struct {
	Path          route.Path
	CellsExamined int
}

// RipUpWire removes the previous routing of wire wi (iterations after the
// first) and returns the number of cells decremented. It must precede
// EvaluateWire for the same wire.
func (pr *Proto) RipUpWire(wi, iter int) int {
	if iter == 0 {
		return 0
	}
	prev := pr.paths[wi]
	route.RipUp(protoCommitView{pr: pr}, prev)
	pr.markOwned()
	if pr.Structure == StructureWireBased {
		pr.recordWireOps(prev, true)
	}
	return prev.Len()
}

// EvaluateWire routes wire wi against the current view without
// committing, into the storage of the path RipUpWire removed: nothing may
// read that path until CommitWire records the new one.
func (pr *Proto) EvaluateWire(wi int) PendingWire {
	w := &pr.circ.Wires[wi]
	ev := pr.scratch.RerouteWire(route.ArrayView{A: pr.view}, w, pr.router, pr.paths[wi])
	return PendingWire{Path: ev.Path, CellsExamined: ev.CellsExamined}
}

// CommitWire places the evaluated path, returning its cost against the
// ground truth at commit time (the wire's occupancy contribution).
func (pr *Proto) CommitWire(wi int, pw PendingWire) int64 {
	trueCost := route.PathCost(pr.truth, pw.Path)
	route.Commit(protoCommitView{pr: pr}, pw.Path)
	pr.markOwned()
	if pr.Structure == StructureWireBased {
		pr.recordWireOps(pw.Path, false)
	}
	pr.paths[wi] = pw.Path
	return trueCost
}

// AfterWire advances the sender initiated schedule and returns the
// updates due.
func (pr *Proto) AfterWire() []Outbound {
	var outs []Outbound
	if pr.Strategy.SendRmtData > 0 {
		pr.sinceSRD++
		if pr.sinceSRD >= pr.Strategy.SendRmtData {
			pr.sinceSRD = 0
			outs = append(outs, pr.pushDeltas()...)
		}
	}
	if pr.Strategy.SendLocData > 0 {
		pr.sinceSLD++
		if pr.sinceSLD >= pr.Strategy.SendLocData {
			pr.sinceSLD = 0
			outs = append(outs, pr.broadcastOwnRegion()...)
		}
	}
	return outs
}

func (pr *Proto) pushDeltas() []Outbound {
	if pr.Structure == StructureWireBased {
		return pr.pushWireOps()
	}
	var outs []Outbound
	for proc := 0; proc < pr.Part.Procs(); proc++ {
		if proc == pr.ID || !pr.delta.HasChanges(proc) {
			continue
		}
		var bb geom.Rect
		var vals []int32
		var scanned int
		if pr.Structure == StructureWholeRegion {
			bb, vals, scanned = pr.delta.TakeWholeRegion(proc)
		} else {
			bb, vals, scanned = pr.delta.TakeRegion(proc)
		}
		pr.scanWork += scanned
		if bb.Empty() {
			continue // full cancellation: nothing to send
		}
		outs = append(outs, Outbound{
			To:  proc,
			Msg: &msg.Message{Kind: msg.KindSendRmtData, Region: bb, Vals: vals},
		})
	}
	return outs
}

// pushWireOps drains the wire-based send queues: one header-only packet
// per straight run, no cancellation.
func (pr *Proto) pushWireOps() []Outbound {
	var outs []Outbound
	for proc := range pr.wireOps {
		for _, op := range pr.wireOps[proc] {
			flag := msg.WireFlagRoute
			if op.ripUp {
				flag = msg.WireFlagRipUp
			}
			outs = append(outs, Outbound{
				To:  proc,
				Msg: &msg.Message{Kind: msg.KindSendRmtWire, Region: op.run, Seq: flag},
			})
		}
		pr.wireOps[proc] = pr.wireOps[proc][:0]
	}
	return outs
}

func (pr *Proto) broadcastOwnRegion() []Outbound {
	if pr.ownDirty.Empty() {
		return nil
	}
	bb, vals := pr.view.ExtractRect(pr.ownDirty)
	pr.scanWork += bb.Area()
	pr.ownDirty = geom.Rect{}
	if bb.Empty() {
		return nil
	}
	outs := make([]Outbound, 0, 4)
	for _, nb := range pr.Part.Neighbors(pr.ID) {
		outs = append(outs, Outbound{
			To:  nb,
			Msg: &msg.Message{Kind: msg.KindSendLocData, Region: bb, Vals: vals},
		})
	}
	return outs
}

// NoteUpcoming counts the regions an upcoming wire will touch and returns
// the ReqRmtData requests due at the configured threshold, incrementing
// Outstanding for each.
func (pr *Proto) NoteUpcoming(wi int) []Outbound {
	if pr.Strategy.ReqRmtData <= 0 {
		return nil
	}
	w := &pr.circ.Wires[wi]
	var outs []Outbound
	for _, proc := range pr.Part.RegionsTouching(w.Bounds()) {
		if proc == pr.ID {
			continue
		}
		pr.touch[proc]++
		if pr.touch[proc] >= pr.Strategy.ReqRmtData {
			pr.touch[proc] = 0
			pr.Outstanding++
			outs = append(outs, Outbound{
				To:  proc,
				Msg: &msg.Message{Kind: msg.KindReqRmtData, Region: pr.Part.Region(proc)},
			})
		}
	}
	return outs
}

// Handle processes one incoming protocol message, updating state and
// returning any responses due. Barrier kinds (Done/Continue) are the
// runtime's business and are rejected here.
func (pr *Proto) Handle(from int, m *msg.Message) []Outbound {
	switch m.Kind {
	case msg.KindSendLocData:
		pr.applyAbsolute(m)
		return nil
	case msg.KindSendRmtData:
		pr.applyDeltaToOwn(m)
		return nil
	case msg.KindReqRmtData:
		return pr.handleReqRmt(from)
	case msg.KindReqLocData:
		return pr.handleReqLoc(from)
	case msg.KindRspRmtData:
		pr.Outstanding--
		if !m.Region.Empty() {
			pr.applyAbsolute(m)
		}
		return nil
	case msg.KindRspLocData:
		if !m.Region.Empty() {
			pr.applyDeltaToOwn(m)
		}
		return nil
	case msg.KindSendRmtWire:
		d := int32(1)
		if m.Seq == msg.WireFlagRipUp {
			d = -1
		}
		r := m.Region.Intersect(pr.view.Grid().Bounds())
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				pr.view.Add(x, y, d)
			}
		}
		// Only the part of the run inside our own region becomes own-dirty
		// state to rebroadcast; marking cells we don't own would let a
		// later SendLocData push stale non-owned values as absolute data.
		// (recordWireOps splits runs per owner, so today the whole run is
		// in-region; the intersection makes that a guarantee, not a habit
		// of the sender.)
		if own := r.Intersect(pr.Part.Region(pr.ID)); !own.Empty() {
			pr.markOwn(own)
		}
		return nil
	}
	panic(fmt.Sprintf("mp: proto %d: unexpected kind %v", pr.ID, m.Kind))
}

func (pr *Proto) applyAbsolute(m *msg.Message) {
	if err := pr.view.ApplyAbsolute(m.Region, m.Vals); err != nil {
		panic(fmt.Sprintf("mp: proto %d applying %v: %v", pr.ID, m.Kind, err))
	}
}

func (pr *Proto) applyDeltaToOwn(m *msg.Message) {
	if err := pr.view.ApplyDelta(m.Region, m.Vals); err != nil {
		panic(fmt.Sprintf("mp: proto %d applying %v: %v", pr.ID, m.Kind, err))
	}
	pr.markOwn(m.Region)
}

func (pr *Proto) handleReqRmt(from int) []Outbound {
	bb := pr.reqDirty[from]
	pr.reqDirty[from] = geom.Rect{}
	rsp := &msg.Message{Kind: msg.KindRspRmtData}
	if !bb.Empty() {
		region, vals := pr.view.ExtractRect(bb)
		pr.scanWork += region.Area()
		rsp.Region, rsp.Vals = region, vals
	}
	outs := []Outbound{{To: from, Msg: rsp}}

	if pr.Strategy.ReqLocData > 0 {
		pr.reqFrom[from]++
		if pr.reqFrom[from] >= pr.Strategy.ReqLocData {
			pr.reqFrom[from] = 0
			outs = append(outs, Outbound{
				To:  from,
				Msg: &msg.Message{Kind: msg.KindReqLocData, Region: pr.Part.Region(pr.ID)},
			})
		}
	}
	return outs
}

func (pr *Proto) handleReqLoc(owner int) []Outbound {
	bb, vals, scanned := pr.delta.TakeRegion(owner)
	pr.scanWork += scanned
	rsp := &msg.Message{Kind: msg.KindRspLocData}
	if !bb.Empty() {
		rsp.Region, rsp.Vals = bb, vals
	}
	return []Outbound{{To: owner, Msg: rsp}}
}
