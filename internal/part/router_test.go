package part

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/par"
	"locusroute/internal/route"
)

func genCircuit(t testing.TB, gen func(int64) circuit.GenParams, seed int64) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Generate(gen(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPartitionsOneMatchesSequential is the equivalence pin of the
// issue: with one partition the tree is a single leaf holding every
// wire in ID order, so the driver must reproduce route.Sequential's
// result and final cost array byte-for-byte — across multiple seeds and
// both benchmark shapes.
func TestPartitionsOneMatchesSequential(t *testing.T) {
	for _, gen := range []struct {
		name string
		fn   func(int64) circuit.GenParams
	}{{"bnrE", circuit.BnrELike}, {"MDC", circuit.MDCLike}} {
		for _, seed := range []int64{1, 2, 3} {
			c := genCircuit(t, gen.fn, seed)
			params := route.DefaultParams()
			wantRes, wantArr := route.Sequential(c, params)
			gotRes, gotArr, st, err := Route(c, params, Config{Partitions: 1})
			if err != nil {
				t.Fatalf("%s seed %d: %v", gen.name, seed, err)
			}
			if gotRes != wantRes {
				t.Errorf("%s seed %d: result %+v, sequential %+v", gen.name, seed, gotRes, wantRes)
			}
			if !gotArr.Equal(wantArr) {
				t.Errorf("%s seed %d: cost arrays differ", gen.name, seed)
			}
			if st.Partitions != 1 || st.BoundaryWires != 0 || st.Depth != 0 {
				t.Errorf("%s seed %d: single-leaf stats %+v", gen.name, seed, st)
			}
		}
	}
}

// TestDeterministicAcrossWorkers pins the scheduling-independence
// argument: the routing is a pure function of (circuit, params,
// partitions), so any worker-pool capacity — including none — must
// produce identical results and identical cost arrays.
func TestDeterministicAcrossWorkers(t *testing.T) {
	c := genCircuit(t, circuit.BnrELike, 1)
	params := route.DefaultParams()
	type out struct {
		res route.Result
		arr *costarray.CostArray
	}
	var runs []out
	for _, pool := range []*par.Pool{nil, par.New(1), par.New(4), par.New(4)} {
		res, arr, _, err := Route(c, params, Config{Partitions: 4, Workers: pool})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, out{res, arr})
	}
	for i, r := range runs[1:] {
		if r.res != runs[0].res {
			t.Errorf("run %d result %+v != run 0 %+v", i+1, r.res, runs[0].res)
		}
		if !r.arr.Equal(runs[0].arr) {
			t.Errorf("run %d cost array differs from run 0", i+1)
		}
	}
}

// serialReference routes c on the partition tree with every node's wires
// placed one by one in ID order, children before parents, on one
// goroutine: the schedule routeConflictOrder must be indistinguishable
// from. It returns the result, the array and every path.
func serialReference(t *testing.T, c *circuit.Circuit, params route.Params, parts int) (route.Result, *costarray.CostArray, []route.Path) {
	t.Helper()
	params = params.Normalized()
	tree, err := NewTree(c.Grid, parts)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var post func(n int)
	post = func(n int) {
		if node := tree.nodes[n]; !node.Leaf() {
			post(node.Left)
			post(node.Right)
		}
		order = append(order, n)
	}
	post(0)
	wires := make([][]int, len(tree.nodes))
	for i := range c.Wires {
		n := tree.Classify(Footprint(&c.Wires[i], params, c.Grid))
		wires[n] = append(wires[n], i)
	}
	arr := costarray.New(c.Grid)
	view := route.ArrayView{A: arr}
	s := route.NewScratch(c.Grid)
	paths := make([]route.Path, len(c.Wires))
	last := make([]int64, len(c.Wires))
	var res route.Result
	for iter := 0; iter < params.Iterations; iter++ {
		for _, n := range order {
			for _, i := range wires[n] {
				if iter > 0 {
					route.RipUp(view, paths[i])
				}
				ev := s.RouteWire(view, &c.Wires[i], params)
				last[i] = route.Place(arr, ev.Path)
				paths[i] = ev.Path
				res.CellsExamined += int64(ev.CellsExamined)
				res.WiresRouted++
			}
		}
	}
	for _, v := range last {
		res.Occupancy += v
	}
	res.CircuitHeight = arr.CircuitHeight()
	return res, arr, paths
}

// crossingCircuit is a circuit whose every wire crosses the middle
// column, so at any partition count most wires are the root's boundary
// wires: long, overlapping in chains and in clusters, some disjoint.
func crossingCircuit(seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	g := geom.Grid{Channels: 12, Grids: 300}
	c := &circuit.Circuit{Name: "crossing", Grid: g}
	for id := 0; id < 160; id++ {
		pins := []circuit.Pin{
			geom.Pt(rng.Intn(g.Grids/2), rng.Intn(g.Channels)),
			geom.Pt(g.Grids/2+rng.Intn(g.Grids/2), rng.Intn(g.Channels)),
		}
		if rng.Intn(3) == 0 {
			pins = append(pins, geom.Pt(rng.Intn(g.Grids), rng.Intn(g.Channels)))
		}
		c.Wires = append(c.Wires, circuit.Wire{ID: id, Pins: pins})
	}
	return c
}

// TestConflictOrderMatchesSerial: routing boundary wires as a
// footprint-conflict graph on several workers must give exactly the
// result, array and paths of placing every wire one by one — at any
// GOMAXPROCS (the worker count) and pool capacity, on generated circuits
// and on one whose wires nearly all cross the root cut. CI runs it under
// -race with -count=5 (make part-golden).
func TestConflictOrderMatchesSerial(t *testing.T) {
	circs := []*circuit.Circuit{genCircuit(t, circuit.BnrELike, 1), genCircuit(t, circuit.MDCLike, 2), crossingCircuit(1)}
	params := route.DefaultParams()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range circs {
		for _, parts := range []int{2, 4, 8} {
			wantRes, wantArr, wantPaths := serialReference(t, c, params, parts)
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, pool := range []*par.Pool{nil, par.New(1), par.New(3)} {
					r, res, _, err := run(c, params, Config{Partitions: parts, Workers: pool})
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s parts %d GOMAXPROCS %d pool %d", c.Name, parts, procs, pool.Workers())
					if res != wantRes {
						t.Errorf("%s: result %+v, serial %+v", where, res, wantRes)
					}
					if !r.arr.Equal(wantArr) {
						t.Errorf("%s: cost array differs from serial", where)
					}
					for i := range wantPaths {
						if !slices.Equal(r.paths[i].Cells, wantPaths[i].Cells) {
							t.Fatalf("%s: wire %d path %v, serial %v", where, i, r.paths[i].Cells, wantPaths[i].Cells)
						}
					}
				}
			}
		}
	}
}

func TestPartitionedStats(t *testing.T) {
	c := genCircuit(t, circuit.BnrELike, 1)
	params := route.DefaultParams()
	res, arr, st, err := Route(c, params, Config{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 4 {
		t.Errorf("realised %d partitions, want 4", st.Partitions)
	}
	if st.TotalWires != len(c.Wires) {
		t.Errorf("TotalWires %d, want %d", st.TotalWires, len(c.Wires))
	}
	sum := 0
	for _, n := range st.LevelWires {
		sum += n
	}
	if sum != st.TotalWires {
		t.Errorf("LevelWires sums to %d, want %d", sum, st.TotalWires)
	}
	leafWires := st.LevelWires[len(st.LevelWires)-1]
	if st.BoundaryWires != st.TotalWires-leafWires {
		t.Errorf("BoundaryWires %d inconsistent with levels %v", st.BoundaryWires, st.LevelWires)
	}
	if st.BoundaryWires == 0 || st.BoundaryWires == st.TotalWires {
		t.Errorf("bnrE at 4 partitions should mix region and boundary wires, got %d/%d",
			st.BoundaryWires, st.TotalWires)
	}
	if len(st.RegionWallNs) != st.Partitions {
		t.Errorf("RegionWallNs has %d entries, want %d", len(st.RegionWallNs), st.Partitions)
	}
	if f := st.BoundaryFrac(); f <= 0 || f >= 1 {
		t.Errorf("BoundaryFrac %v out of (0,1)", f)
	}
	if res.WiresRouted != len(c.Wires)*params.Iterations {
		t.Errorf("WiresRouted %d, want %d", res.WiresRouted, len(c.Wires)*params.Iterations)
	}
	if res.CircuitHeight <= 0 || res.Occupancy <= 0 {
		t.Errorf("degenerate quality metrics %+v", res)
	}
	// The committed wire mass must match: sum of cells equals the sum of
	// final path lengths, independent of partitioning.
	var mass int64
	for _, v := range arr.Cells() {
		mass += int64(v)
	}
	if mass <= 0 {
		t.Error("empty cost array after routing")
	}
}

// TestPartitionQualityClose checks partitioning does not wreck routing
// quality: the partitioned circuit height stays within a modest factor
// of sequential (the wires are the same; only the order differs).
func TestPartitionQualityClose(t *testing.T) {
	c := genCircuit(t, circuit.BnrELike, 1)
	params := route.DefaultParams()
	seqRes, _ := route.Sequential(c, params)
	partRes, _, _, err := Route(c, params, Config{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if partRes.CircuitHeight > seqRes.CircuitHeight*3/2 {
		t.Errorf("partitioned height %d vs sequential %d: more than 1.5x worse",
			partRes.CircuitHeight, seqRes.CircuitHeight)
	}
}

// arraySum fingerprints a cost array's cells.
func arraySum(a *costarray.CostArray) [sha256.Size]byte {
	buf := make([]byte, 0, 4*len(a.Cells()))
	for _, v := range a.Cells() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return sha256.Sum256(buf)
}

// Concurrent runs on two grids draw their scratches from route's shared
// pool, get back scratches other runs routed with, and must still route
// exactly as a serial run does: a pooled scratch carries nothing from one
// run into the next.
func TestPooledScratchConcurrentRoutes(t *testing.T) {
	circs := []*circuit.Circuit{genCircuit(t, circuit.BnrELike, 1), genCircuit(t, circuit.MDCLike, 1)}
	if circs[0].Grid == circs[1].Grid {
		t.Fatal("the two circuits share a grid")
	}
	type out struct {
		res route.Result
		sum [sha256.Size]byte
	}
	params := route.DefaultParams()
	run := func(c *circuit.Circuit) (out, error) {
		res, arr, _, err := Route(c, params, Config{Partitions: 4})
		if err != nil {
			return out{}, err
		}
		return out{res, arraySum(arr)}, nil
	}
	want := make([]out, len(circs))
	for i, c := range circs {
		var err error
		if want[i], err = run(c); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				i := (g + k) % len(circs)
				got, err := run(circs[i])
				if err == nil && got != want[i] {
					err = fmt.Errorf("goroutine %d run %d on %s: %+v, serial %+v", g, k, circs[i].Name, got, want[i])
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRouteAllocationBound bounds the heap bytes one Route of the 10x
// bnrE preset at 4 partitions allocates (the batch_route workload's
// call): paths are int32 cost-array indices, 4 bytes per cell, so a
// route allocates about 2 MB; 16-byte point paths took 5 MB, and the
// bound fails if paths regain that size. Scratches come from the pool,
// so the first run's are excluded and the rest are averaged. Skipped
// under the race detector, whose sync.Pool drops scratches at random.
func TestRouteAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	c := scaledCircuit(t)
	params := route.DefaultParams()
	route1 := func() {
		if _, _, _, err := Route(c, params, Config{Partitions: 4}); err != nil {
			t.Fatal(err)
		}
	}
	route1()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		route1()
	}
	runtime.ReadMemStats(&after)
	const bound = 2.5e6
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if perRun > bound {
		t.Errorf("Route of the %dx preset at 4 partitions allocates %.2f MB per run, want <= %.1f MB",
			ScaledFactor, perRun/1e6, bound/1e6)
	}
	t.Logf("%.2f MB per Route", perRun/1e6)
}
