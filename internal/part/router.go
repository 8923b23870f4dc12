package part

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/obs"
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
	// Workers bounds how many leaf regions and boundary-wire workers route
	// at once; nil applies no bound beyond the tree's own sibling
	// structure and GOMAXPROCS workers per internal node.
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
	// leaves' wires route region by region, everything shallower routes
	// at its level once the level below has finished.
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

// Doc renders the stats as a run document's partition section.
func (s *Stats) Doc() *obs.PartitionDoc {
	return &obs.PartitionDoc{
		Partitions:      s.Partitions,
		Depth:           s.Depth,
		BoundaryWires:   s.BoundaryWires,
		BoundaryFrac:    s.BoundaryFrac(),
		LevelWires:      s.LevelWires,
		RegionWallNs:    s.RegionWallNs,
		NegotiatedIters: s.NegotiatedIters,
		OverusedCells:   s.OverusedCells,
		PresFacFinal:    s.PresFacFinal,
	}
}

// Route routes c with the partition-parallel schedule: wires are
// classified by footprint into the deepest tree region containing them,
// sibling subtrees route concurrently against disjoint slices of one
// shared cost array, and each internal node's boundary wires route once
// both children have finished, in footprint-conflict order (see
// routeNode). The schedule is a pure function of (circuit, params,
// Partitions): worker count and goroutine interleaving cannot change
// which cost states each wire observes, because a wire only ever races
// with wires whose footprints are disjoint from its own. With
// Partitions == 1 the tree is one leaf and the wire-by-wire operation
// sequence equals route.Sequential's exactly.
func Route(c *circuit.Circuit, params route.Params, cfg Config) (route.Result, *costarray.CostArray, *Stats, error) {
	r, res, st, err := run(c, params, cfg)
	if err != nil {
		return route.Result{}, nil, nil, err
	}
	return res, r.arr, st, nil
}

// run is Route, returning the finished runner (and with it every wire's
// final path) in place of the bare array.
func run(c *circuit.Circuit, params route.Params, cfg Config) (*runner, route.Result, *Stats, error) {
	params = params.Normalized()
	parts := cfg.Partitions
	if parts <= 0 {
		parts = DefaultPartitions
	}
	tree, err := NewTree(c.Grid, parts)
	if err != nil {
		return nil, route.Result{}, nil, err
	}

	r := &runner{
		c:      c,
		params: params,
		tree:   tree,
		pool:   cfg.Workers,
		arr:    costarray.New(c.Grid),
		fp:     make([]geom.Rect, len(c.Wires)),
		paths:  make([]route.Path, len(c.Wires)),
		last:   make([]int64, len(c.Wires)),
		wires:  make([][]int, len(tree.nodes)),
		cells:  make([]int64, len(tree.nodes)),
		routed: make([]int, len(tree.nodes)),
		wallNs: make([]int64, len(tree.nodes)),
	}
	r.view = route.ArrayView{A: r.arr}
	st := &Stats{
		Partitions: tree.Leaves(),
		Depth:      tree.Depth(),
		TotalWires: len(c.Wires),
		LevelWires: make([]int, tree.Depth()+1),
	}
	for i := range c.Wires {
		r.fp[i] = Footprint(&c.Wires[i], params, c.Grid)
		n := tree.Classify(r.fp[i])
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
	st.RegionWallNs = make([]int64, len(tree.leaves))
	for k, n := range tree.leaves {
		st.RegionWallNs[k] = r.wallNs[n]
	}
	return r, res, st, nil
}

// runner holds the shared state of one partition-parallel run. Slices
// indexed by wire are written race-free because each wire is routed by
// one goroutine at a time; slices indexed by node are written race-free
// because each node is routed by exactly one call at a time.
type runner struct {
	c      *circuit.Circuit
	params route.Params
	tree   *Tree
	pool   *par.Pool
	arr    *costarray.CostArray
	view   route.ArrayView // prices candidates: arr, or the negotiated price array
	neg    *negPrice       // the negotiated schedule's prices, nil in the fixed one

	fp    []geom.Rect // per wire: Footprint, every cell its routing can touch
	paths []route.Path
	last  []int64 // occupancy contribution per wire

	wires  [][]int // per node: wire indices in ID order
	cells  []int64 // per node: cost reads performed
	routed []int   // per node: wire routings performed
	wallNs []int64 // per leaf: routing wall time
}

// walk runs fn over the subtree at n in post order with sibling
// concurrency: both children execute concurrently, and n's own (boundary)
// wires route only after both have finished — the merged cost state of
// the subtree. Recursion goroutines are structural (par.Gather style);
// only the routing itself (a leaf's loop, a boundary worker) acquires
// pool slots.
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

// routeNode routes the listed wires of node n against the shared array,
// each as route.Sequential would (routeWire), with the result of routing
// them one by one in ID order. ws must be a subset of r.wires[n] in ID
// order; callers pass r.wires[n] itself for a full pass. A nil or empty
// list routes nothing — there is no "no filter" sentinel, so a reroute
// pass with nothing to do at this node cannot accidentally rip up the
// node's whole wire set.
//
// A leaf routes its wires in one serial loop on one pool slot: leaves
// run concurrently with each other, and their many short wires would
// drown a finer schedule in bookkeeping. An internal node's boundary
// wires are few and long and have the array to themselves, so they route
// in conflict order (routeConflictOrder).
func (r *runner) routeNode(n int, ripUp bool, ws []int) {
	if len(ws) == 0 {
		return
	}
	if !r.tree.nodes[n].Leaf() {
		r.cells[n] += r.routeConflictOrder(ws, ripUp)
		r.routed[n] += len(ws)
		return
	}
	r.pool.Run(func() {
		start := time.Now()
		s := route.GetScratch(r.c.Grid)
		for _, i := range ws {
			r.cells[n] += int64(r.routeWire(s, i, ripUp))
		}
		route.PutScratch(s)
		r.routed[n] += len(ws)
		r.wallNs[n] += time.Since(start).Nanoseconds()
	})
}

// routeConflictOrder routes ws as a dependency graph: wire ws[j] starts
// once every earlier wire of ws whose footprint overlaps its own has been
// placed. A wire reads and writes only inside its footprint
// (TestFootprintCoversKernel), so each one sees exactly the cost state
// the ID-order loop would show it, while wires with disjoint footprints
// route at once. Up to GOMAXPROCS workers, each on its own pool slot and
// scratch, take ready wires from a channel; the wire that drops a
// successor's count of unplaced predecessors to zero sends it. A worker
// waits on the channel holding its pool slot, which par.Pool allows only
// because the wait always ends: an unplaced wire whose predecessors are
// all placed is in the channel, so while none is there another worker,
// holding its own slot, is routing one. Returns the cells examined.
func (r *runner) routeConflictOrder(ws []int, ripUp bool) int64 {
	m := len(ws)
	// Wire k's successors, the later positions whose footprint overlaps
	// ws[k]'s, are succ[from[k]:from[k+1]].
	from := make([]int32, m+1)
	preds := make([]atomic.Int32, m) // unplaced earlier overlapping wires
	var succ []int32
	for k := range m {
		fk := r.fp[ws[k]]
		for j := k + 1; j < m; j++ {
			if fk.Overlaps(r.fp[ws[j]]) {
				succ = append(succ, int32(j))
				preds[j].Add(1)
			}
		}
		from[k+1] = int32(len(succ))
	}
	ready := make(chan int32, m)
	for j := range preds {
		if preds[j].Load() == 0 {
			ready <- int32(j)
		}
	}
	var unplaced atomic.Int32
	unplaced.Store(int32(m))
	cells := make([]int64, min(runtime.GOMAXPROCS(0), m))
	var wg sync.WaitGroup
	for w := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.pool.Run(func() {
				s := route.GetScratch(r.c.Grid)
				for j := range ready {
					cells[w] += int64(r.routeWire(s, ws[j], ripUp))
					for _, k := range succ[from[j]:from[j+1]] {
						if preds[k].Add(-1) == 0 {
							ready <- k
						}
					}
					if unplaced.Add(-1) == 0 {
						close(ready)
					}
				}
				route.PutScratch(s)
			})
		}()
	}
	wg.Wait()
	var sum int64
	for _, c := range cells {
		sum += c
	}
	return sum
}

// routeWire is the one per-wire step of every schedule, route.Sequential's
// sequence: rip up wire i's previous path (when ripUp), evaluate the wire
// on r.view into that path's storage, and place the winner — measure its
// cost against the occupancy array and commit it there. Only evaluation
// reads r.view: placement and rip-up always land on the occupancy array,
// and under the negotiated schedule each refreshes the prices of its
// path's cells. Returns the cells examined.
func (r *runner) routeWire(s *route.Scratch, i int, ripUp bool) int {
	if ripUp {
		route.RipUp(route.ArrayView{A: r.arr}, r.paths[i])
		if r.neg != nil {
			r.neg.refresh(r.paths[i])
		}
	}
	ev := s.RerouteWire(r.view, &r.c.Wires[i], r.params, r.paths[i])
	r.last[i] = route.Place(r.arr, ev.Path)
	if r.neg != nil {
		r.neg.refresh(ev.Path)
	}
	r.paths[i] = ev.Path
	return ev.CellsExamined
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
