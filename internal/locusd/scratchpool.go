package locusd

import (
	"sync"

	"locusroute/internal/geom"
	"locusroute/internal/route"
)

// scratchPool recycles route.Scratch values across independent routing
// calls. A fresh Scratch costs one visited-grid allocation plus the
// kernel's map/buffer growth — route's BenchmarkRouteWireStandalone
// shows 12 allocs per wire on that path versus the 1 of a reused
// scratch (BENCHMARK.json's exact route.allocs_per_wire) — so
// per-request routing (locusd's serving path, one wire per request)
// pools them instead of allocating.
//
// Scratches are segregated by grid: a Scratch's visited array is sized
// for one grid, and feeding it a different shape forces a reallocation
// (route.Scratch.ensure). A single pool serving two circuits with
// different grids would thrash — every Get could surface a scratch
// sized for the other circuit — so the pool keys a sync.Pool per grid.
// The key space is bounded by the set of distinct grids the process
// serves, which is the set of loaded circuits.
//
// The zero value is ready to use. All methods are safe for concurrent
// use; the Scratches themselves remain single-threaded between Get and
// Put.
type scratchPool struct {
	pools sync.Map // geom.Grid -> *sync.Pool of *route.Scratch
}

// pool returns the per-grid sync.Pool, creating it on first use.
func (p *scratchPool) pool(g geom.Grid) *sync.Pool {
	if sp, ok := p.pools.Load(g); ok {
		return sp.(*sync.Pool)
	}
	sp, _ := p.pools.LoadOrStore(g, &sync.Pool{
		New: func() any { return route.NewScratch(g) },
	})
	return sp.(*sync.Pool)
}

// Get returns a Scratch sized for grid g, reusing a previously Put one
// when available. The caller owns it until Put.
func (p *scratchPool) Get(g geom.Grid) *route.Scratch {
	return p.pool(g).Get().(*route.Scratch)
}

// Put returns a Scratch obtained from Get(g) to the pool. The caller
// must not use s afterwards.
func (p *scratchPool) Put(g geom.Grid, s *route.Scratch) {
	if s == nil {
		return
	}
	p.pool(g).Put(s)
}
