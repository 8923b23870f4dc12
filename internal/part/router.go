package part

import (
	"sync"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/par"
	"locusroute/internal/route"
)

// DefaultPartitions is the leaf-region count used when Config.Partitions
// is unset. It is a fixed constant (not GOMAXPROCS-derived) so that the
// routing produced by the partitioned backend is a pure function of its
// inputs, independent of the machine it runs on.
const DefaultPartitions = 4

// Config tunes a partition-parallel routing run.
type Config struct {
	// Partitions is the requested number of leaf regions (<= 0 means
	// DefaultPartitions). 1 reproduces route.Sequential bit-for-bit.
	Partitions int
	// Workers bounds how many regions route concurrently; nil applies no
	// bound beyond the tree's own sibling structure.
	Workers *par.Pool
	// Negotiated switches the run to the negotiated-congestion schedule
	// (escalating pres_fac, history costs, rip-up of overused wires
	// only). Nil routes with the paper's fixed cost function.
	Negotiated *Negotiated
}

// Stats describes how the partition schedule decomposed a run; it feeds
// the obs partition document and the paper's partition table.
type Stats struct {
	// Partitions is the number of leaf regions actually realised.
	Partitions int
	// Depth is the tree depth (0 for a single leaf).
	Depth int
	// TotalWires and BoundaryWires count the circuit's wires and the
	// subset classified onto internal nodes (crossing some cut).
	TotalWires    int
	BoundaryWires int
	// LevelWires[d] is the number of wires classified at depth d; the
	// leaves' wires are the concurrent work, everything shallower routes
	// serially at its level.
	LevelWires []int
	// RegionWallNs is the wall-clock time spent routing each leaf region
	// (left-to-right leaf order), summed over iterations.
	RegionWallNs []int64
	// NegotiatedIters, OverusedCells, and PresFacFinal describe the
	// negotiated-congestion schedule when Config.Negotiated was set:
	// iterations consumed, overused cells remaining at exit (0 means the
	// schedule converged), and the final pres_fac value.
	NegotiatedIters int
	OverusedCells   int
	PresFacFinal    float64
}

// BoundaryFrac returns the fraction of wires that crossed a cut.
func (s *Stats) BoundaryFrac() float64 {
	if s.TotalWires == 0 {
		return 0
	}
	return float64(s.BoundaryWires) / float64(s.TotalWires)
}

// Route routes c with the partition-parallel schedule: wires are
// classified by footprint into the deepest tree region containing them,
// sibling subtrees route concurrently against disjoint slices of one
// shared cost array, and each internal node's boundary wires route
// serially once both children have finished. The schedule is a pure
// function of (circuit, params, Partitions): worker count and goroutine
// interleaving cannot change which cost states each wire observes,
// because a wire only ever races with wires whose footprints are
// disjoint from its own. With Partitions == 1 the tree is one leaf and
// the wire-by-wire operation sequence equals route.Sequential's exactly.
func Route(c *circuit.Circuit, params route.Params, cfg Config) (route.Result, *costarray.CostArray, *Stats, error) {
	params = params.Normalized()
	parts := cfg.Partitions
	if parts <= 0 {
		parts = DefaultPartitions
	}
	tree, err := NewTree(c.Grid, parts)
	if err != nil {
		return route.Result{}, nil, nil, err
	}

	r := &runner{
		c:       c,
		params:  params,
		tree:    tree,
		pool:    cfg.Workers,
		arr:     costarray.New(c.Grid),
		paths:   make([]route.Path, len(c.Wires)),
		last:    make([]int64, len(c.Wires)),
		wires:   make([][]int, len(tree.nodes)),
		cells:   make([]int64, len(tree.nodes)),
		routed:  make([]int, len(tree.nodes)),
		wallNs:  make([]int64, len(tree.nodes)),
		scratch: make([]*route.Scratch, len(tree.nodes)),
	}
	st := &Stats{
		Partitions: tree.Leaves(),
		Depth:      tree.Depth(),
		TotalWires: len(c.Wires),
		LevelWires: make([]int, tree.Depth()+1),
	}
	for i := range c.Wires {
		n := tree.Classify(Footprint(&c.Wires[i], params, c.Grid))
		r.wires[n] = append(r.wires[n], i) // ascending i keeps ID order per node
		st.LevelWires[tree.nodes[n].Depth]++
		if !tree.nodes[n].Leaf() {
			st.BoundaryWires++
		}
	}

	var res route.Result
	if cfg.Negotiated != nil {
		res = r.routeNegotiated(cfg.Negotiated, st)
	} else {
		for iter := 0; iter < params.Iterations; iter++ {
			r.walk(0, func(n int) { r.routeNode(n, iter > 0, r.wires[n]) })
		}
		res = r.result()
	}
	for _, s := range r.scratch {
		route.PutScratch(s)
	}
	st.RegionWallNs = make([]int64, len(tree.leaves))
	for k, n := range tree.leaves {
		st.RegionWallNs[k] = r.wallNs[n]
	}
	return res, r.arr, st, nil
}

// runner holds the shared state of one partition-parallel run. Slices
// indexed by wire are written race-free because each wire belongs to
// exactly one tree node; slices indexed by node are written race-free
// because each node is routed by exactly one goroutine at a time.
type runner struct {
	c      *circuit.Circuit
	params route.Params
	tree   *Tree
	pool   *par.Pool
	arr    *costarray.CostArray
	view   route.CostView // non-nil prices candidates instead of ArrayView{arr} (negotiated)

	paths []route.Path
	last  []int64 // occupancy contribution per wire

	wires   [][]int          // per node: wire indices in ID order
	cells   []int64          // per node: cost reads performed
	routed  []int            // per node: wire routings performed
	wallNs  []int64          // per node: routing wall time
	scratch []*route.Scratch // per node: pooled, returned when the run ends
}

// walk runs fn over the subtree at n in post order with sibling
// concurrency: both children execute concurrently, and n's own (boundary)
// wires route only after both have finished — the merged cost state of
// the subtree. Recursion goroutines are structural (par.Gather style);
// only routeNode acquires pool slots.
func (r *runner) walk(n int, fn func(n int)) {
	node := r.tree.nodes[n]
	if !node.Leaf() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.walk(node.Left, fn)
		}()
		r.walk(node.Right, fn)
		wg.Wait()
	}
	fn(n)
}

// routeNode routes the listed wires of node n in ID order against the
// shared array, replicating route.Sequential's per-wire operation
// sequence: rip-up the previous path (when ripUp), evaluate into that
// path's storage, place it (measure its cost against the authoritative
// array and commit). Only evaluation goes through r.view: placement and
// rip-up always land on the occupancy array. ws must be a
// subset of r.wires[n] in ID order; callers pass r.wires[n] itself for
// a full pass. A nil or empty list routes nothing — there is no
// "no filter" sentinel, so a reroute pass with nothing to do at this
// node cannot accidentally rip up the node's whole wire set.
func (r *runner) routeNode(n int, ripUp bool, ws []int) {
	if len(ws) == 0 {
		return
	}
	r.pool.Run(func() {
		start := time.Now()
		if r.scratch[n] == nil {
			r.scratch[n] = route.GetScratch(r.c.Grid)
		}
		s := r.scratch[n]
		raw := route.ArrayView{A: r.arr}
		view := r.view
		if view == nil {
			view = raw
		}
		for _, i := range ws {
			w := &r.c.Wires[i]
			if ripUp {
				route.RipUp(raw, r.paths[i])
			}
			ev := s.RerouteWire(view, w, r.params, r.paths[i])
			r.last[i] = route.Place(r.arr, ev.Path)
			r.paths[i] = ev.Path
			r.cells[n] += int64(ev.CellsExamined)
			r.routed[n]++
		}
		r.wallNs[n] += time.Since(start).Nanoseconds()
	})
}

// result assembles the route.Result from the per-node tallies; the sums
// are order-independent, so the result is deterministic even though the
// tallies accrued concurrently.
func (r *runner) result() route.Result {
	var res route.Result
	for n := range r.tree.nodes {
		res.CellsExamined += r.cells[n]
		res.WiresRouted += r.routed[n]
	}
	for _, c := range r.last {
		res.Occupancy += c
	}
	res.CircuitHeight = r.arr.CircuitHeight()
	return res
}
