package part

import (
	"strconv"
	"sync"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/route"
)

// ScaledFactor is the preset the repository benchmark routes (the
// batch_route workload and the part.p1_ms / part.p4_ms /
// part.speedup_x / part.boundary_frac rows of BENCHMARK.json): 10x
// bnrE, big enough that region routing dominates tree overhead.
const ScaledFactor = 10

var (
	scaledOnce sync.Once
	scaledCirc *circuit.Circuit
)

func scaledCircuit(b testing.TB) *circuit.Circuit {
	scaledOnce.Do(func() {
		c, err := circuit.Generate(circuit.Scaled(circuit.BnrELike(1), ScaledFactor))
		if err != nil {
			b.Fatal(err)
		}
		scaledCirc = c
	})
	return scaledCirc
}

func BenchmarkSequentialScaled(b *testing.B) {
	c := scaledCircuit(b)
	params := route.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.Sequential(c, params)
	}
}

// BenchmarkPartitionedScaled reports, beside ns/op, the process CPU time
// per op and its ratio to wall time (busy-cpus): how many cores the
// partition schedule keeps busy, which ns/op alone cannot show.
func BenchmarkPartitionedScaled(b *testing.B) {
	c := scaledCircuit(b)
	params := route.DefaultParams()
	for _, parts := range []int{1, 2, 4, 8} {
		b.Run(benchName(parts), func(b *testing.B) {
			b.ReportAllocs()
			cpu0, ok := processCPU()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := Route(c, params, Config{Partitions: parts}); err != nil {
					b.Fatal(err)
				}
			}
			if cpu1, _ := processCPU(); ok {
				cpu := cpu1 - cpu0
				b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/op")
				b.ReportMetric(cpu.Seconds()/b.Elapsed().Seconds(), "busy-cpus")
			}
		})
	}
}

func BenchmarkNegotiatedScaled(b *testing.B) {
	c := scaledCircuit(b)
	params := route.DefaultParams()
	for _, parts := range []int{1, 4} {
		b.Run(benchName(parts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := Route(c, params, Config{Partitions: parts, Negotiated: &Negotiated{}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(parts int) string {
	return "parts-" + strconv.Itoa(parts)
}
