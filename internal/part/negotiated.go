package part

import (
	"math"

	"locusroute/internal/costarray"
	"locusroute/internal/route"
)

// Negotiated configures the negotiated-congestion cost schedule
// (PathFinder/VPR style). The first pass routes every wire by length
// alone; each later pass escalates the present-congestion factor,
// charges history for cells that stayed overused, and rips up only the
// wires crossing an overused cell. The schedule stops as soon as no cell
// exceeds its capacity, or after MaxIters passes.
//
// The zero value of every field selects its default, so &Negotiated{}
// enables the mode with the standard schedule.
type Negotiated struct {
	// PresFacStart is the initial present-congestion factor (default 0.5).
	PresFacStart float64
	// PresFacMult multiplies the factor each pass (default 1.8).
	PresFacMult float64
	// PresFacCap bounds the factor's growth (default 1e6).
	PresFacCap float64
	// HistoryIncr is added to a cell's history cost each pass the cell
	// remains overused (default 1).
	HistoryIncr int32
	// Capacity is the wire count a cell may hold without being overused.
	// <= 0 means auto: after the initial pass, the average committed
	// occupancy per grid cell, rounded up (minimum 1).
	Capacity int32
	// MaxIters bounds the total number of passes including the initial
	// one (default 16).
	MaxIters int
}

func (n Negotiated) withDefaults() Negotiated {
	if n.PresFacStart <= 0 {
		n.PresFacStart = 0.5
	}
	if n.PresFacMult <= 1 {
		n.PresFacMult = 1.8
	}
	if n.PresFacCap <= 0 {
		n.PresFacCap = 1e6
	}
	if n.HistoryIncr <= 0 {
		n.HistoryIncr = 1
	}
	if n.MaxIters <= 0 {
		n.MaxIters = 16
	}
	return n
}

// negPrice is the negotiated cost function, materialised: price holds,
// for every cell of the occupancy array occ,
//
//	cost(x,y) = 1 + history(x,y) + trunc(presFac * overuse(x,y))
//
// where overuse = max(0, occ - capacity + 1) — a cell at capacity
// already charges one unit of pressure, so the router starts avoiding
// cells *before* they tip over. capacity <= 0 (the auto placeholder
// during the initial pass) disables the pressure term entirely, which is
// PathFinder's first iteration: route by length, discover congestion.
//
// The kernel prices candidates on price as on any plain array, and
// routeWire keeps it current: after a rip-up and after a placement it
// refreshes the cells of that path, the only cells whose occupancy
// moved. presFac, hist and capacity change only between passes, while
// no routing goroutine is running, and rebuild then recomputes every
// cell. A price cell is written only by the wire whose path covers it,
// so within a pass a wire's prices depend only on cells inside its
// footprint and boundary wires route in conflict order as they do
// without the schedule.
type negPrice struct {
	occ, price *costarray.CostArray
	hist       []int32
	capacity   int32
	presFac    float64
}

// at is the cost of cell i.
func (v *negPrice) at(i int) int32 {
	c := int64(1) + int64(v.hist[i])
	if v.capacity > 0 {
		if over := v.occ.Cells()[i] - v.capacity + 1; over > 0 {
			p := v.presFac * float64(over)
			if p > math.MaxInt32/2 {
				p = math.MaxInt32 / 2
			}
			c += int64(p)
		}
	}
	return int32(min(c, math.MaxInt32))
}

// refresh recomputes the price of every cell of path.
func (v *negPrice) refresh(path route.Path) {
	cells := v.price.Cells()
	for _, i := range path.Cells {
		cells[i] = v.at(int(i))
	}
}

// rebuild recomputes every price.
func (v *negPrice) rebuild() {
	cells := v.price.Cells()
	for i := range cells {
		cells[i] = v.at(i)
	}
}

// routeNegotiated drives the negotiated-congestion schedule over the
// partition tree. Every pass uses the same deterministic partition
// schedule as the fixed mode; the reroute set and all schedule state
// (history, presFac, capacity) are computed serially between passes, so
// the run remains a pure function of (circuit, params, partitions,
// schedule parameters).
func (r *runner) routeNegotiated(neg *Negotiated, st *Stats) route.Result {
	cfg := neg.withDefaults()
	nv := &negPrice{
		occ:      r.arr,
		price:    costarray.New(r.c.Grid),
		hist:     make([]int32, r.c.Grid.Cells()),
		capacity: cfg.Capacity,
		presFac:  cfg.PresFacStart,
	}
	nv.rebuild()
	r.neg, r.view = nv, route.ArrayView{A: nv.price}

	// Initial pass: all wires, no rip-up; with auto capacity the
	// pressure term is off, so wires route by length and expose where
	// congestion actually lands.
	r.walk(0, func(n int) { r.routeNode(n, false, r.wires[n]) })
	if nv.capacity <= 0 {
		nv.capacity = autoCapacity(r.arr)
	}
	st.NegotiatedIters = 1
	st.PresFacFinal = nv.presFac

	for it := 1; it < cfg.MaxIters; it++ {
		if countOverused(r.arr, nv.capacity) == 0 {
			break
		}
		nv.presFac *= cfg.PresFacMult
		if nv.presFac > cfg.PresFacCap {
			nv.presFac = cfg.PresFacCap
		}
		bumpHistory(nv, cfg.HistoryIncr)
		nv.rebuild()
		active := r.activeWires(nv.capacity)
		if active == nil {
			break
		}
		r.walk(0, func(n int) { r.routeNode(n, true, active[n]) })
		st.NegotiatedIters++
		st.PresFacFinal = nv.presFac
	}
	st.OverusedCells = countOverused(r.arr, nv.capacity)
	return r.result()
}

// autoCapacity is the auto capacity rule: average committed occupancy
// per grid cell, rounded up, at least 1.
func autoCapacity(a *costarray.CostArray) int32 {
	var sum int64
	cells := a.Cells()
	for _, v := range cells {
		sum += int64(v)
	}
	c := (sum + int64(len(cells)) - 1) / int64(len(cells))
	if c < 1 {
		c = 1
	}
	return int32(c)
}

// countOverused returns how many cells exceed cap.
func countOverused(a *costarray.CostArray, cap int32) int {
	n := 0
	for _, v := range a.Cells() {
		if v > cap {
			n++
		}
	}
	return n
}

// bumpHistory charges incr to every currently overused cell.
func bumpHistory(v *negPrice, incr int32) {
	for i, occ := range v.occ.Cells() {
		if occ > v.capacity {
			v.hist[i] += incr
		}
	}
}

// activeWires returns, per tree node, the node's wires (ID order) whose
// committed path crosses an overused cell — the rip-up set of the next
// pass. Returns nil when no wire qualifies.
func (r *runner) activeWires(cap int32) [][]int {
	act := make([][]int, len(r.tree.nodes))
	any := false
	occ := r.arr.Cells()
	for n, ws := range r.wires {
		for _, i := range ws {
			for _, c := range r.paths[i].Cells {
				if occ[c] > cap {
					act[n] = append(act[n], i)
					any = true
					break
				}
			}
		}
	}
	if !any {
		return nil
	}
	return act
}
