package mp

import (
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/msg"
	"locusroute/internal/route"
)

// protoFixture builds a 2x2-processor protocol pair (ids 0 and 1 are mesh
// neighbours) over a small circuit with a shared ground truth.
type protoFixture struct {
	circ  *circuit.Circuit
	part  geom.Partition
	truth *costarray.CostArray
	ps    []*Proto
}

func newProtoFixture(t *testing.T, st Strategy) *protoFixture {
	t.Helper()
	c := smallCircuit(3)
	part, err := geom.NewPartition(c.Grid, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := &protoFixture{
		circ:  c,
		part:  part,
		truth: costarray.New(c.Grid),
	}
	for id := 0; id < 4; id++ {
		p := newProto(id, c, part, st, route.Params{Iterations: 2},
			make([]route.Path, len(c.Wires)), route.NewScratch(c.Grid), part.OwnerTable())
		p.SetTruth(f.truth)
		f.ps = append(f.ps, p)
	}
	return f
}

// routeWire evaluates and commits wire wi's first routing in one step
// and returns the number of cells committed.
func routeWire(pr *Proto, wi int) int {
	pw := pr.EvaluateWire(wi)
	pr.CommitWire(wi, pw)
	return pw.Path.Len()
}

// deliver routes outbound messages to their target protos, collecting any
// cascaded responses until quiescence.
func (f *protoFixture) deliver(from int, outs []Outbound) {
	type env struct {
		from int
		out  Outbound
	}
	queue := make([]env, 0, len(outs))
	for _, o := range outs {
		queue = append(queue, env{from: from, out: o})
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		target := f.ps[e.out.To]
		for _, rsp := range target.Handle(e.from, e.out.Msg) {
			queue = append(queue, env{from: e.out.To, out: rsp})
		}
	}
}

// wireIn returns a wire index whose bounding box lies inside proc's
// region, or -1.
func (f *protoFixture) wireIn(proc int) int {
	region := f.part.Region(proc)
	for i := range f.circ.Wires {
		if region.ContainsRect(f.circ.Wires[i].Bounds()) {
			return i
		}
	}
	return -1
}

// wireCrossing returns a wire routed by `by` whose bounding box touches a
// region not owned by `by`, or -1.
func (f *protoFixture) wireCrossing(by int) int {
	for i := range f.circ.Wires {
		for _, owner := range f.part.RegionsTouching(f.circ.Wires[i].Bounds()) {
			if owner != by {
				return i
			}
		}
	}
	return -1
}

func TestProtoCommitUpdatesViewAndTruth(t *testing.T) {
	f := newProtoFixture(t, Strategy{})
	p := f.ps[0]
	committed := routeWire(p, 0)
	if committed == 0 {
		t.Fatalf("no cells committed")
	}
	// Every committed cell is visible in the router's view and in the
	// ground truth.
	var viewSum, truthSum int64
	g := f.circ.Grid
	for y := 0; y < g.Channels; y++ {
		for x := 0; x < g.Grids; x++ {
			viewSum += int64(p.view.At(x, y))
			truthSum += int64(f.truth.At(x, y))
		}
	}
	if viewSum != int64(committed) || truthSum != viewSum {
		t.Errorf("view sum %d, truth sum %d, committed %d", viewSum, truthSum, committed)
	}
}

func TestProtoRipUpRestoresEmpty(t *testing.T) {
	f := newProtoFixture(t, Strategy{})
	p := f.ps[0]
	routeWire(p, 5)
	ripped := p.RipUpWire(5, 1)
	if ripped == 0 {
		t.Fatalf("nothing ripped")
	}
	if p.view.NonZeroCells() != 0 || f.truth.NonZeroCells() != 0 {
		t.Errorf("rip-up must restore the empty array")
	}
}

func TestProtoSendRmtDataDeliversDeltasToOwner(t *testing.T) {
	f := newProtoFixture(t, SenderInitiated(1, 0))
	// Find a wire routed by 0 crossing another region.
	wi := f.wireCrossing(0)
	if wi < 0 {
		t.Skip("no crossing wire in this circuit")
	}
	p0 := f.ps[0]
	routeWire(p0, wi)
	outs := p0.AfterWire()
	if len(outs) == 0 {
		t.Fatalf("SendRmtData=1 must push deltas after one wire")
	}
	f.deliver(0, outs)
	// After delivery, every owner's view agrees with the truth on its
	// own region.
	for id, p := range f.ps {
		r := f.part.Region(id)
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				if p.view.At(x, y) != f.truth.At(x, y) {
					t.Fatalf("owner %d cell (%d,%d): view %d truth %d",
						id, x, y, p.view.At(x, y), f.truth.At(x, y))
				}
			}
		}
	}
}

func TestProtoSendLocDataReachesNeighborsOnly(t *testing.T) {
	f := newProtoFixture(t, SenderInitiated(0, 1))
	wi := f.wireIn(0)
	if wi < 0 {
		t.Skip("no in-region wire")
	}
	p0 := f.ps[0]
	routeWire(p0, wi)
	outs := p0.AfterWire()
	if len(outs) == 0 {
		t.Fatalf("SendLocData=1 must broadcast after one wire")
	}
	neighbors := map[int]bool{}
	for _, nb := range f.part.Neighbors(0) {
		neighbors[nb] = true
	}
	for _, o := range outs {
		if o.Msg.Kind != msg.KindSendLocData {
			t.Errorf("unexpected kind %v", o.Msg.Kind)
		}
		if !neighbors[o.To] {
			t.Errorf("SendLocData sent to non-neighbor %d", o.To)
		}
	}
	// Second AfterWire without routing: nothing changed, nothing sent.
	if outs := p0.AfterWire(); len(outs) != 0 {
		t.Errorf("no changes must mean no broadcast, got %d packets", len(outs))
	}
}

func TestProtoReqRmtDataRequestResponse(t *testing.T) {
	f := newProtoFixture(t, ReceiverInitiated(0, 1, false))
	// Owner 1 routes a wire in its own region so it has data to serve.
	wi := f.wireIn(1)
	if wi < 0 {
		t.Skip("no in-region wire for processor 1")
	}
	routeWire(f.ps[1], wi)

	// Processor 0 notes an upcoming wire crossing region 1.
	cross := -1
	for i := range f.circ.Wires {
		for _, owner := range f.part.RegionsTouching(f.circ.Wires[i].Bounds()) {
			if owner == 1 {
				cross = i
			}
		}
	}
	if cross < 0 {
		t.Skip("no wire crossing region 1")
	}
	outs := f.ps[0].NoteUpcoming(cross)
	if len(outs) == 0 {
		t.Fatalf("ReqRmtData=1 must request on first touch")
	}
	if f.ps[0].Outstanding == 0 {
		t.Fatalf("outstanding must count pending responses")
	}
	f.deliver(0, outs)
	if f.ps[0].Outstanding != 0 {
		t.Errorf("responses must clear outstanding, still %d", f.ps[0].Outstanding)
	}
	// Processor 0's view of region 1 now matches the owner's.
	r1 := f.part.Region(1)
	for y := r1.Y0; y < r1.Y1; y++ {
		for x := r1.X0; x < r1.X1; x++ {
			if f.ps[0].view.At(x, y) != f.ps[1].view.At(x, y) {
				t.Fatalf("view divergence at (%d,%d) after response", x, y)
			}
		}
	}
}

func TestProtoSecondRequestGetsNoChange(t *testing.T) {
	f := newProtoFixture(t, ReceiverInitiated(0, 1, false))
	wi := f.wireIn(1)
	if wi < 0 {
		t.Skip("no in-region wire")
	}
	routeWire(f.ps[1], wi)
	// Two identical requests from 0: first carries data, second is a
	// header-only "no changes" response.
	rsp1 := f.ps[1].Handle(0, &msg.Message{Kind: msg.KindReqRmtData, Region: f.part.Region(1)})
	rsp2 := f.ps[1].Handle(0, &msg.Message{Kind: msg.KindReqRmtData, Region: f.part.Region(1)})
	if len(rsp1) == 0 || rsp1[0].Msg.Region.Empty() {
		t.Fatalf("first response must carry data")
	}
	if len(rsp2) == 0 || !rsp2[0].Msg.Region.Empty() {
		t.Errorf("second response must be a no-change header")
	}
}

func TestProtoReqLocDataPullsDeltasHome(t *testing.T) {
	f := newProtoFixture(t, ReceiverInitiated(1, 1, false))
	wi := f.wireCrossing(0)
	if wi < 0 {
		t.Skip("no crossing wire")
	}
	routeWire(f.ps[0], wi)
	// Owner of a crossed region asks 0 for its deltas.
	var owner int = -1
	for _, o := range f.part.RegionsTouching(f.circ.Wires[wi].Bounds()) {
		if o != 0 {
			owner = o
		}
	}
	if owner < 0 {
		t.Skip("no remote owner")
	}
	outs := f.ps[0].Handle(owner, &msg.Message{Kind: msg.KindReqLocData, Region: f.part.Region(owner)})
	if len(outs) != 1 || outs[0].Msg.Kind != msg.KindRspLocData {
		t.Fatalf("ReqLocData must produce one RspLocData, got %v", outs)
	}
	f.deliver(0, outs)
	// The owner's view of its region now matches the truth there.
	r := f.part.Region(owner)
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			if f.ps[owner].view.At(x, y) != f.truth.At(x, y) {
				t.Fatalf("owner view diverges from truth at (%d,%d)", x, y)
			}
		}
	}
	// And 0's deltas for that region are cleared: a second pull is empty.
	outs = f.ps[0].Handle(owner, &msg.Message{Kind: msg.KindReqLocData, Region: f.part.Region(owner)})
	if !outs[0].Msg.Region.Empty() {
		t.Errorf("second pull must be empty (deltas already taken)")
	}
}

func TestProtoHandleRejectsBarrierKinds(t *testing.T) {
	f := newProtoFixture(t, Strategy{})
	defer func() {
		if recover() == nil {
			t.Errorf("barrier kinds must panic in Proto.Handle")
		}
	}()
	f.ps[0].Handle(1, &msg.Message{Kind: msg.KindDone})
}

func TestProtoScanWorkAccumulates(t *testing.T) {
	f := newProtoFixture(t, SenderInitiated(1, 1))
	wi := f.wireCrossing(0)
	if wi < 0 {
		t.Skip("no crossing wire")
	}
	routeWire(f.ps[0], wi)
	f.ps[0].AfterWire()
	if f.ps[0].TakeScanWork() == 0 {
		t.Errorf("update construction must report scan work")
	}
	if f.ps[0].TakeScanWork() != 0 {
		t.Errorf("TakeScanWork must reset")
	}
}

// TestCommitAndRipUpMarkOwnedCells checks the dirty bounds a path leaves
// behind: after a commit and after a rip-up, the processor's own dirty
// box and every other processor's request box are the bounding box of
// the path's cells it owns, and nothing else.
func TestCommitAndRipUpMarkOwnedCells(t *testing.T) {
	f := newProtoFixture(t, Strategy{})
	for wi := range f.circ.Wires {
		p := f.ps[wi%len(f.ps)]
		p.RipUpWire(wi, 0) // iteration 0 has nothing to rip up
		pw := p.EvaluateWire(wi)
		var want geom.Rect
		for _, i := range pw.Path.Cells {
			if c := f.circ.Grid.Point(int(i)); f.part.Owner(c) == p.ID {
				want = want.AddPoint(c)
			}
		}
		check := func(op string) {
			t.Helper()
			for i, got := range append([]geom.Rect{p.ownDirty}, p.reqDirty...) {
				if i-1 != p.ID && got != want {
					t.Fatalf("wire %d on proc %d after %s: dirty box %d (-1: own) is %v, want %v", wi, p.ID, op, i-1, got, want)
				}
			}
			p.ownDirty = geom.Rect{}
			clear(p.reqDirty)
		}
		p.CommitWire(wi, pw)
		check("commit")
		p.RipUpWire(wi, 1)
		check("rip-up")
	}
}
