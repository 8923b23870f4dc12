package route

import (
	"testing"

	"locusroute/internal/circuit"
)

// benchCircuit is a mid-size synthetic circuit for kernel benchmarks
// (independent of the experiments package to avoid an import cycle).
func benchCircuit(b *testing.B) *circuit.Circuit {
	b.Helper()
	return circuit.MustGenerate(circuit.GenParams{
		Name: "bench", Channels: 10, Grids: 341, Wires: 420, MeanSpan: 25, Seed: 7,
	})
}

// BenchmarkRouteWire measures the allocation-free kernel as the backends
// use it: one Scratch reused across wires and iterations.
func BenchmarkRouteWire(b *testing.B) {
	c := benchCircuit(b)
	_, arr := Sequential(c, Params{Iterations: 1})
	view := ArrayView{A: arr}
	scratch := NewScratch(c.Grid)
	params := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.RouteWire(view, &c.Wires[i%len(c.Wires)], params)
	}
}

// BenchmarkRouteWireObserved is BenchmarkRouteWire with a ReadObserver
// on the scratch that counts what it is told: the kernel as the traced
// shared memory version runs it, less the trace itself.
func BenchmarkRouteWireObserved(b *testing.B) {
	c := benchCircuit(b)
	_, arr := Sequential(c, Params{Iterations: 1})
	reads := &readCounter{}
	view := ArrayView{A: arr}
	scratch := NewScratch(c.Grid)
	scratch.Observe(reads)
	params := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.RouteWire(view, &c.Wires[i%len(c.Wires)], params)
	}
	b.ReportMetric(float64(reads.n)/float64(b.N), "reads/op")
}

// readCounter is a ReadObserver that counts the cells it is told of.
type readCounter struct{ n int }

func (r *readCounter) ReadRun(x, y, dx, dy, n int) { r.n += n }

// BenchmarkRouteWireStandalone measures the compatibility wrapper, which
// builds a fresh Scratch per call — the shape tests use, not the hot
// path.
func BenchmarkRouteWireStandalone(b *testing.B) {
	c := benchCircuit(b)
	_, arr := Sequential(c, Params{Iterations: 1})
	view := ArrayView{A: arr}
	params := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RouteWire(view, &c.Wires[i%len(c.Wires)], params)
	}
}

// BenchmarkSequentialFullRun measures a complete three-iteration
// sequential routing run — every wire routed, ripped up, and rerouted —
// with allocation tracking.
func BenchmarkSequentialFullRun(b *testing.B) {
	c := benchCircuit(b)
	params := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(c, params)
	}
}
