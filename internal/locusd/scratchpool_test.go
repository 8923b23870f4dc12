package locusd

import (
	"testing"

	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/route"
	"locusroute/pkg/locusroute"
)

// TestScratchPoolAllocs pins the pooled per-request routing cost: a
// Get/RouteWire/Put cycle must stay at the reused-scratch allocation
// floor (the caller-owned Path copy: BENCHMARK.json's exact
// route.allocs_per_wire = 1), not the 12 allocs/op of the standalone
// fresh-Scratch path (route's BenchmarkRouteWireStandalone).
func TestScratchPoolAllocs(t *testing.T) {
	c, err := locusroute.BnrE(7)
	if err != nil {
		t.Fatal(err)
	}
	arr := costarray.New(c.Grid)
	view := route.ArrayView{A: arr}
	params := route.DefaultParams()
	w := &c.Wires[17]
	var pool scratchPool
	// Warm the pool and the per-wire pin cache outside the measurement.
	s := pool.Get(c.Grid)
	s.RouteWire(view, w, params)
	pool.Put(c.Grid, s)

	avg := testing.AllocsPerRun(200, func() {
		s := pool.Get(c.Grid)
		s.RouteWire(view, w, params)
		pool.Put(c.Grid, s)
	})
	if raceEnabled {
		// The pooled path still ran above for data-race coverage; only
		// the count is skipped — race instrumentation allocates on the
		// sync.Pool path, inflating AllocsPerRun beyond the code's own.
		t.Skip("allocation counts are inflated under the race detector; the <=2 pin runs in the non-race suite")
	}
	// One allocation is inherent (takePath's caller-owned copy); allow
	// one more for pool-internal noise. The fresh-Scratch path costs 12.
	if avg > 2 {
		t.Errorf("pooled route cycle costs %.1f allocs/op, want <= 2 (fresh Scratch costs 12)", avg)
	}
}

// TestScratchPoolPerGrid checks that scratches are segregated by grid:
// a scratch returned for one grid shape is never handed out for
// another, so alternating circuits cannot thrash each other's visited
// arrays.
func TestScratchPoolPerGrid(t *testing.T) {
	gA := geom.Grid{Channels: 10, Grids: 341}
	gB := geom.Grid{Channels: 12, Grids: 386}
	var pool scratchPool
	a := pool.Get(gA)
	pool.Put(gA, a)
	b := pool.Get(gB)
	if a == b {
		t.Fatal("pool handed a scratch sized for grid A out for grid B")
	}
	pool.Put(gB, b)
	// Putting nil is a no-op, not a panic (drain paths pass through).
	pool.Put(gA, nil)
}

// TestScratchPoolZeroValue checks the zero value works without any
// constructor, matching the Server embedding in locusd.
func TestScratchPoolZeroValue(t *testing.T) {
	var pool scratchPool
	g := geom.Grid{Channels: 4, Grids: 16}
	s := pool.Get(g)
	if s == nil {
		t.Fatal("zero-value pool returned nil scratch")
	}
	pool.Put(g, s)
}
