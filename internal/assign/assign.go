// Package assign implements the static wire assignment strategies of
// Section 4.2 of the paper and the locality measure of Section 5.3.3.
//
// The paper's strategies:
//
//   - Round robin: wire i goes to processor i mod P — the extreme
//     non-local baseline.
//   - ThresholdCost: wires with length cost below ThresholdCost are
//     assigned to the owner processor of their leftmost pin (locality);
//     longer wires, which have limited locality anyway, are held back and
//     assigned in a final step to balance the load, ignoring locality.
//     ThresholdCost = 0 degenerates to pure load balancing and
//     ThresholdInfinity to pure locality (every wire to its leftmost
//     pin's owner), which exhibits the paper's load imbalance.
//
// The same assignments drive both paradigms: they fix which processor
// routes which wires in the message passing version, and which logical
// process routes which wires in the locality experiments of the shared
// memory version (Table 5).
package assign

import (
	"fmt"
	"math"
	"sort"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
)

// ThresholdInfinity makes every wire assign by locality (no load-balance
// backfill). Any threshold above the largest possible wire cost behaves
// identically.
const ThresholdInfinity = math.MaxInt

// ThresholdStandard is the paper's compromise ThresholdCost (Section
// 4.2): the message passing default and the standard assignment of the
// tables that do not sweep locality.
const ThresholdStandard = 1000

// Method identifies an assignment strategy for reporting.
type Method int

const (
	// RoundRobin assigns wire i to processor i mod P.
	RoundRobin Method = iota
	// Threshold assigns by leftmost-pin locality below a cost threshold
	// and by load balancing above it.
	Threshold
)

// String names the method as the paper's tables do.
func (m Method) String() string {
	switch m {
	case RoundRobin:
		return "round robin"
	case Threshold:
		return "ThresholdCost"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// WireOrder selects the order in which each processor routes its
// assigned wires — a classic router heuristic knob. The paper routes in
// circuit order; LongestFirst places the hardest wires while the cost
// array is emptiest.
type WireOrder int

const (
	// NaturalOrder routes wires in circuit (netlist) order.
	NaturalOrder WireOrder = iota
	// LongestFirst routes each processor's longest wires first.
	LongestFirst
	// ShortestFirst routes each processor's shortest wires first.
	ShortestFirst
)

// String names the order.
func (o WireOrder) String() string {
	switch o {
	case NaturalOrder:
		return "natural"
	case LongestFirst:
		return "longest-first"
	case ShortestFirst:
		return "shortest-first"
	}
	return fmt.Sprintf("WireOrder(%d)", int(o))
}

// Assignment maps every wire of a circuit to a processor.
type Assignment struct {
	// Proc[i] is the processor that routes circuit wire index i.
	Proc []int
	// NumProcs is the processor count the assignment was built for.
	NumProcs int
	// Cost[i] is the wire's length cost, captured at construction so
	// orderings need no circuit access.
	Cost []int
	// Order is the per-processor routing order (default NaturalOrder).
	Order WireOrder
}

// WiresOf returns the wire indices assigned to proc in the assignment's
// routing order — the static per-processor work list.
func (a *Assignment) WiresOf(proc int) []int {
	var out []int
	for i, p := range a.Proc {
		if p == proc {
			out = append(out, i)
		}
	}
	switch a.Order {
	case LongestFirst:
		sort.SliceStable(out, func(x, y int) bool { return a.Cost[out[x]] > a.Cost[out[y]] })
	case ShortestFirst:
		sort.SliceStable(out, func(x, y int) bool { return a.Cost[out[x]] < a.Cost[out[y]] })
	}
	return out
}

// Counts returns how many wires each processor received.
func (a *Assignment) Counts() []int {
	counts := make([]int, a.NumProcs)
	for _, p := range a.Proc {
		counts[p]++
	}
	return counts
}

// Imbalance returns max/mean of the per-processor wire counts (1.0 is a
// perfect balance). Returns 0 for an empty assignment.
func (a *Assignment) Imbalance() float64 {
	counts := a.Counts()
	if len(a.Proc) == 0 || a.NumProcs == 0 {
		return 0
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(len(a.Proc)) / float64(a.NumProcs)
	return float64(maxC) / mean
}

// Validate checks the assignment covers every wire with a valid processor.
func (a *Assignment) Validate(c *circuit.Circuit) error {
	if len(a.Proc) != len(c.Wires) {
		return fmt.Errorf("assign: %d assignments for %d wires", len(a.Proc), len(c.Wires))
	}
	for i, p := range a.Proc {
		if p < 0 || p >= a.NumProcs {
			return fmt.Errorf("assign: wire %d assigned to invalid processor %d", i, p)
		}
	}
	return nil
}

// AssignRoundRobin distributes wires round robin over the partition's
// processors, ignoring locality entirely.
func AssignRoundRobin(c *circuit.Circuit, part geom.Partition) *Assignment {
	a := newAssignment(c, part.Procs())
	for i := range c.Wires {
		a.Proc[i] = i % part.Procs()
	}
	return a
}

// newAssignment allocates an assignment with the wire costs captured.
func newAssignment(c *circuit.Circuit, procs int) *Assignment {
	a := &Assignment{
		Proc:     make([]int, len(c.Wires)),
		NumProcs: procs,
		Cost:     make([]int, len(c.Wires)),
	}
	for i := range c.Wires {
		a.Cost[i] = c.Wires[i].Cost()
	}
	return a
}

// AssignThreshold implements the paper's ThresholdCost strategy. Wires
// with Cost() < threshold go to the owner of their leftmost pin. The
// remaining (long) wires are assigned in a final step to the processors
// with the least load, ignoring locality. Load is measured in estimated
// routing work (wire cost + 1), not wire count, so one long wire
// counterweighs several short ones.
func AssignThreshold(c *circuit.Circuit, part geom.Partition, threshold int) *Assignment {
	a := newAssignment(c, part.Procs())
	load := make([]int, part.Procs())

	var held []int // indices of long wires for the backfill step
	for i := range c.Wires {
		w := &c.Wires[i]
		if w.Cost() < threshold {
			p := part.Owner(w.LeftmostPin())
			a.Proc[i] = p
			load[p] += w.Cost() + 1
		} else {
			held = append(held, i)
		}
	}

	// Final step: longest wires first onto the least-loaded processor
	// (greedy LPT), ignoring locality. Ties broken by wire index then
	// processor index for determinism.
	sort.SliceStable(held, func(x, y int) bool {
		return c.Wires[held[x]].Cost() > c.Wires[held[y]].Cost()
	})
	for _, i := range held {
		p := leastLoaded(load)
		a.Proc[i] = p
		load[p] += c.Wires[i].Cost() + 1
	}
	return a
}

func leastLoaded(load []int) int {
	best := 0
	for p, l := range load {
		if l < load[best] {
			best = p
		}
	}
	return best
}

// LocalityMeasure computes the paper's quantitative locality measure: a
// weighted average of the distance, in horizontal or vertical mesh hops,
// between the processor routing a wire segment and the processor that owns
// the region the segment lies in. A measure of 0 means every cell is
// routed by its owner (perfect locality). The weight of each (wire,
// region) pair is the number of the wire's bounding-box cells in that
// region — a static proxy for the cells the wire's routes will touch.
func LocalityMeasure(c *circuit.Circuit, part geom.Partition, a *Assignment) float64 {
	var weighted, total float64
	for i := range c.Wires {
		w := &c.Wires[i]
		router := a.Proc[i]
		bb := w.Bounds()
		for _, owner := range part.RegionsTouching(bb) {
			overlap := bb.Intersect(part.Region(owner)).Area()
			weighted += float64(overlap) * float64(part.MeshDistance(router, owner))
			total += float64(overlap)
		}
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}
