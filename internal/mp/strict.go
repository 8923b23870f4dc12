package mp

import (
	"fmt"

	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/msg"
	"locusroute/internal/route"
	"locusroute/internal/tracev"
)

// Strict region ownership is the first cost array distribution the paper
// describes and rejects (Section 4.1): the array is divided into
// portions, each processor performs ALL routing within its own portion,
// and a routing task that extends into another region is passed to that
// region's owner. There is no replication and therefore no update
// traffic at all — every region is always consistent — but the paper
// predicts (and this implementation measures) two costs: load imbalance
// when many wires lie in one region, and task-passing message traffic
// because most wires span several regions and routing decisions become
// per-region greedy rather than globally minimal.
//
// A task carries (current cell, final target cell, wire, initiator). The
// owner of the current cell routes from it to the target clamped into
// its region — a region is rectangular, so the candidate routes between
// two in-region points stay inside it — then either reports completion
// to the initiator or steps one cell across the boundary toward the
// target and passes the task on.

// Strict ownership is a protocol variant of the one DES node, as
// dynamic wire assignment is: the node runs runStrict rounds, and its
// handle serves KindPassTask and KindSegDone, while the barrier, the
// packet transport and the time ledger are the node's own.

// strictState is a node's strict-ownership state: its region, the
// private array that is authoritative for that region only, and the
// sub-paths and segments of the wires it initiated.
type strictState struct {
	region  geom.Rect
	arr     *costarray.CostArray // authoritative for my region only
	scratch *route.Scratch       // reusable routing kernel state

	subPaths    map[int][]route.Path // my committed sub-paths per wire
	outstanding int                  // my initiated segments still routing somewhere
}

func newStrictState(region geom.Rect, g geom.Grid) *strictState {
	return &strictState{
		region:   region,
		arr:      costarray.New(g),
		scratch:  route.NewScratch(g),
		subPaths: make(map[int][]route.Path),
	}
}

// packTask encodes a task Seq; Config.Validate has already capped strict
// runs at the encoding's wire and processor limits, so failure here is a
// programming error.
func packTask(wire, initiator int) uint16 {
	seq, err := msg.PackTask(wire, initiator)
	if err != nil {
		panic(fmt.Sprintf("mp: %v", err))
	}
	return seq
}

// strictRouterParams restricts candidate routes to the region: both
// endpoints are inside the (rectangular) region and no detour channels
// are allowed, so every candidate stays inside.
func strictRouterParams(base route.Params) route.Params {
	base.Iterations = 1
	base.VHVDetourChannels = 0
	return base
}

// runStrict is one strict-ownership round: rip up last round's
// sub-paths, launch every wire this node initiates, and wait until all
// their segments have completed, wherever they were routed.
func (n *node) runStrict(iter int) {
	if iter > 0 {
		n.ripAll()
	}
	for _, wi := range n.wires {
		n.drain()
		n.launchWire(wi)
	}
	n.blockUntil(int64(n.strict.outstanding), func() bool { return n.strict.outstanding == 0 })
}

// ripAll removes every sub-path this node committed in the previous
// iteration — the strict scheme's rip-up phase needs no messages because
// each region rips its own cells.
func (n *node) ripAll() {
	view, truth := route.ArrayView{A: n.strict.arr}, route.ArrayView{A: n.r.truth}
	cells := 0
	for wi, paths := range n.strict.subPaths {
		for _, path := range paths {
			route.RipUp(view, path)
			route.RipUp(truth, path)
			cells += path.Len()
		}
		delete(n.strict.subPaths, wi)
	}
	n.wait(n.r.cfg.Perf.WriteTime(cells), tracev.CatCompute)
}

// launchWire decomposes a wire into two-pin segments and starts a task
// for each; segments beginning in other regions are passed immediately.
// The sorted pins may live in the scratch's sort buffer, which only the
// next SortedPins call overwrites: dispatch reaches RoutePair and send,
// never SortedPins, so the buffer holds for the whole loop.
func (n *node) launchWire(wi int) {
	pins := n.strict.scratch.SortedPins(&n.r.circ.Wires[wi])
	for i := 0; i+1 < len(pins); i++ {
		n.strict.outstanding++
		n.dispatch(pins[i], pins[i+1], wi, n.id)
	}
}

// dispatch routes a task locally if the current cell is ours, or passes
// it to the owner.
func (n *node) dispatch(cur, tgt geom.Point, wi, initiator int) {
	if owner := n.r.part.Owner(cur); owner != n.id {
		n.send(owner, &msg.Message{
			Kind:   msg.KindPassTask,
			Region: geom.Rect{X0: cur.X, Y0: cur.Y, X1: tgt.X, Y1: tgt.Y},
			Seq:    packTask(wi, initiator),
		})
		return
	}
	n.processTask(cur, tgt, wi, initiator)
}

// processTask routes from cur to the target clamped into this region,
// then completes or hands off.
func (n *node) processTask(cur, tgt geom.Point, wi, initiator int) {
	st := n.strict
	clamped := clampInto(st.region, tgt)

	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindRouteWire, int64(wi))
	ev := st.scratch.RoutePair(route.ArrayView{A: st.arr}, cur, clamped, strictRouterParams(n.r.cfg.Router))
	n.wait(n.r.cfg.Perf.WireOverhead+n.r.cfg.Perf.EvalTime(ev.CellsExamined), tracev.CatCompute)
	route.Commit(route.ArrayView{A: st.arr}, ev.Path)
	trueCost := route.Place(n.r.truth, ev.Path)
	n.wait(n.r.cfg.Perf.WriteTime(ev.Path.Len()), tracev.CatCompute)
	n.tr.End(n.track, int64(n.p.Now()), tracev.KindRouteWire, int64(wi))
	st.subPaths[wi] = append(st.subPaths[wi], ev.Path)
	n.r.lastCost[wi] += trueCost
	n.r.cells += int64(ev.CellsExamined)

	if clamped == tgt {
		n.completeSegment(wi, initiator)
		return
	}
	next := stepToward(clamped, tgt)
	n.dispatch(next, tgt, wi, initiator)
}

// completeSegment notifies the initiator (possibly ourselves).
func (n *node) completeSegment(wi, initiator int) {
	if initiator == n.id {
		n.strict.outstanding--
		return
	}
	n.send(initiator, &msg.Message{Kind: msg.KindSegDone, Seq: packTask(wi, initiator)})
}

// clampInto moves p to the nearest point inside the rectangle.
func clampInto(r geom.Rect, p geom.Point) geom.Point {
	if p.X < r.X0 {
		p.X = r.X0
	}
	if p.X >= r.X1 {
		p.X = r.X1 - 1
	}
	if p.Y < r.Y0 {
		p.Y = r.Y0
	}
	if p.Y >= r.Y1 {
		p.Y = r.Y1 - 1
	}
	return p
}

// stepToward moves one cell from p toward tgt, preferring the horizontal
// dimension; p != tgt is required.
func stepToward(p, tgt geom.Point) geom.Point {
	switch {
	case p.X < tgt.X:
		p.X++
	case p.X > tgt.X:
		p.X--
	case p.Y < tgt.Y:
		p.Y++
	case p.Y > tgt.Y:
		p.Y--
	}
	return p
}
