package route

import (
	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
)

// ArrayView is the array the kernel prices candidates on, and the plain
// writer Commit and RipUp recognise by type and apply straight to A's
// cells.
type ArrayView struct {
	A *costarray.CostArray
}

// AddCost implements CostView.
func (v ArrayView) AddCost(x, y int, d int32) { v.A.Add(x, y, d) }

// Result summarises a complete routing run.
type Result struct {
	// CircuitHeight is the total number of routing tracks required (sum
	// over channels of the max wires through any grid). Lower is better.
	CircuitHeight int64
	// Occupancy is the occupancy factor: the sum over all wires of the
	// path cost at the time the wire was (last) routed. Lower is better.
	Occupancy int64
	// CellsExamined is the total evaluation work across all iterations.
	CellsExamined int64
	// WiresRouted counts wire routings performed (wires x iterations).
	WiresRouted int
}

// Sequential routes the whole circuit on a single consistent cost array —
// the uniprocessor baseline both parallel versions are compared against.
// It returns the final cost array alongside the result so callers can
// inspect or render the routing.
func Sequential(c *circuit.Circuit, params Params) (Result, *costarray.CostArray) {
	res, arr, _ := SequentialPaths(c, params)
	return res, arr
}

// SequentialPaths is Sequential that also returns every wire's final
// path, indexed like c.Wires: the array is exactly the sum of their
// Commits, so a caller that keeps them can rip up or re-commit any wire
// later (internal/store's incremental mutations and snapshot reload).
func SequentialPaths(c *circuit.Circuit, params Params) (Result, *costarray.CostArray, []Path) {
	params = params.withDefaults()
	arr := costarray.New(c.Grid)
	view := ArrayView{A: arr}
	scratch := GetScratch(c.Grid)
	defer PutScratch(scratch)
	paths := make([]Path, len(c.Wires))
	lastCost := make([]int64, len(c.Wires))
	var res Result

	for iter := 0; iter < params.Iterations; iter++ {
		for i := range c.Wires {
			w := &c.Wires[i]
			if iter > 0 {
				RipUp(view, paths[i])
			}
			ev := scratch.RerouteWire(view, w, params, paths[i])
			lastCost[i] = Place(arr, ev.Path)
			paths[i] = ev.Path
			res.CellsExamined += int64(ev.CellsExamined)
			res.WiresRouted++
		}
	}

	res.CircuitHeight = arr.CircuitHeight()
	for _, c := range lastCost {
		res.Occupancy += c
	}
	return res, arr, paths
}
