// Package locusroute's top-level benchmarks regenerate every table of the
// paper's evaluation section at full scale (one benchmark per table, plus
// the Section 5.1.3 and 5.3.3 comparisons) and report the headline
// numbers as benchmark metrics. Micro-benchmarks of the core primitives
// (route evaluation, mesh transport, packet codec, coherence replay)
// follow.
//
// Regenerate everything:
//
//	go test -bench . -benchtime 1x
package locusroute

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/cache"
	"locusroute/internal/circuit"
	"locusroute/internal/experiments"
	"locusroute/internal/geom"
	"locusroute/internal/locusd"
	"locusroute/internal/mesh"
	"locusroute/internal/mp"
	"locusroute/internal/msg"
	"locusroute/internal/par"
	"locusroute/internal/route"
	"locusroute/internal/sim"
	"locusroute/internal/sm"
	"locusroute/internal/trace"
)

// BenchmarkTable1 regenerates Table 1: network traffic using sender
// initiated updates (bnrE, 16 processors).
func BenchmarkTable1(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Table1(c, s))(b)
		reportBest(b, rows)
	}
}

// BenchmarkTable2 regenerates Table 2: traffic using non-blocking
// receiver initiated updates.
func BenchmarkTable2(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Table2(c, s))(b)
		reportBest(b, rows)
	}
}

// BenchmarkBlockingVsNonBlocking regenerates the Section 5.1.3 blocking
// comparison.
func BenchmarkBlockingVsNonBlocking(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Blocking(c, s))(b)
		// Report the blocking time penalty of the first schedule pair.
		b.ReportMetric(rows[1].Seconds/rows[0].Seconds, "blocking-slowdown")
	}
}

// BenchmarkMixed regenerates the Section 5.1.3 mixed schedule comparison.
func BenchmarkMixed(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Mixed(c, s))(b)
		b.ReportMetric(float64(rows[2].Occupancy), "mixed-occupancy")
	}
}

// BenchmarkTable3 regenerates Table 3: shared memory traffic as a
// function of cache line size.
func BenchmarkTable3(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Table3(c, s))(b)
		b.ReportMetric(rows[0].MBytes, "MB-line4")
		b.ReportMetric(rows[len(rows)-1].MBytes, "MB-line32")
	}
}

// BenchmarkTable4 regenerates Table 4: effect of locality in the message
// passing version (both circuits).
func BenchmarkTable4(b *testing.B) {
	circuits := []*circuit.Circuit{experiments.BnrE(), experiments.MDC()}
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Table4(circuits, s))(b)
		b.ReportMetric(rows[0].MBytes, "MB-roundrobin")
		b.ReportMetric(rows[3].MBytes, "MB-local")
	}
}

// BenchmarkTable5 regenerates Table 5: effect of locality in the shared
// memory version (both circuits, 8-byte lines).
func BenchmarkTable5(b *testing.B) {
	circuits := []*circuit.Circuit{experiments.BnrE(), experiments.MDC()}
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Table5(circuits, s))(b)
		b.ReportMetric(rows[0].MBytes, "MB-roundrobin")
		b.ReportMetric(rows[3].MBytes, "MB-local")
	}
}

// BenchmarkTable6 regenerates Table 6: effect of the number of processors.
func BenchmarkTable6(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Table6(c, s))(b)
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup-16p")
	}
}

// BenchmarkLocalityMeasure regenerates the Section 5.3.3 locality
// computation for both circuits.
func BenchmarkLocalityMeasure(b *testing.B) {
	circuits := []*circuit.Circuit{experiments.BnrE(), experiments.MDC()}
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Locality(circuits, s))(b)
		for _, r := range rows {
			if r.Method == "ThresholdCost = inf." {
				b.ReportMetric(r.Measure, "hops-"+r.Circuit)
			}
		}
	}
}

// BenchmarkComparison regenerates the Section 5.2 cross-paradigm traffic
// and quality comparison.
func BenchmarkComparison(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Comparison(c, s))(b)
		b.ReportMetric(rows[0].MBytes/rows[1].MBytes, "SM-over-sender")
		b.ReportMetric(rows[1].MBytes/rows[2].MBytes, "sender-over-receiver")
	}
}

// must unwraps a driver result, failing the benchmark on error. Curried
// so a multi-value driver call can feed it directly.
func must[R any](rows []R, err error) func(testing.TB) []R {
	return func(tb testing.TB) []R {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return rows
	}
}

func reportBest(b *testing.B, rows []experiments.MPRow) {
	b.Helper()
	best := rows[0]
	for _, r := range rows[1:] {
		if r.CktHt < best.CktHt {
			best = r
		}
	}
	b.ReportMetric(float64(best.CktHt), "best-ckt-ht")
	b.ReportMetric(best.MBytes, "best-row-MB")
}

// BenchmarkRenderSet measures the experiment driver end to end at
// reduced scale: the same table set rendered serially (par1) and fanned
// out (par4). The outputs are byte-identical — only the wall clock
// differs, and only when real cores are available.
func BenchmarkRenderSet(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenParams{
		Name: "bench", Channels: 8, Grids: 96, Wires: 90, MeanSpan: 12, Seed: 3,
	})
	names := []string{"1", "blocking", "3", "comparison", "6"}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
			s := experiments.Setup{Procs: 4, Iterations: 2, Threshold: 1000, Pool: par.New(workers)}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RenderSet(names, c, c, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks of the primitives ----------------------------------

// BenchmarkRouteWire measures single-wire route evaluation on a loaded
// cost array, in the production configuration: a per-worker Scratch
// reused across calls. The budget is BENCHMARK.json's exact row
// route.allocs_per_wire = 1 (98 before Scratch), which `make
// layers-exact` holds at tolerance zero; route.wire_ns is the time.
func BenchmarkRouteWire(b *testing.B) {
	c := experiments.BnrE()
	res, arr := route.Sequential(c, route.Params{Iterations: 1})
	_ = res
	view := route.ArrayView{A: arr}
	scratch := route.NewScratch(c.Grid)
	w := &c.Wires[17]
	params := route.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.RouteWire(view, w, params)
	}
}

// BenchmarkSequentialIteration measures one full sequential routing pass.
func BenchmarkSequentialIteration(b *testing.B) {
	c := experiments.BnrE()
	params := route.Params{Iterations: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.Sequential(c, params)
	}
}

// BenchmarkMeshSend measures DES packet transport across the mesh.
func BenchmarkMeshSend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		n, err := mesh.New(k, []int{4, 4}, mesh.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		k.Spawn("recv", func(p *sim.Process) {
			for j := 0; j < 100; j++ {
				n.Inbox(15).Recv(p)
			}
		})
		k.Spawn("send", func(p *sim.Process) {
			for j := 0; j < 100; j++ {
				n.Send(p, 0, 15, nil, 64)
			}
		})
		k.Run()
	}
}

// BenchmarkMsgCodec measures update packet encode+decode round trips.
func BenchmarkMsgCodec(b *testing.B) {
	vals := make([]int32, 200)
	for i := range vals {
		vals[i] = int32(i % 7)
	}
	m := &msg.Message{Kind: msg.KindSendLocData, Region: geom.R(0, 0, 49, 3), Vals: vals}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := msg.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheReplay measures coherence simulation throughput on a real
// trace.
func BenchmarkCacheReplay(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenParams{
		Name: "bench", Channels: 8, Grids: 96, Wires: 90, MeanSpan: 12, Seed: 3,
	})
	cfg := sm.DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 1
	tr := &trace.Trace{}
	if _, err := sm.RunTraced(c, cfg, tr.AppendBatch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Replay(tr, 4, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "refs")
}

// BenchmarkRunTraced measures the traced shared memory router alone on
// the paper's circuit at 16 processes, its references merged and then
// dropped: the routing-kernel-plus-tracing share of sm.traced_run_ms,
// where BenchmarkCacheReplay is the coherence share.
//
//	go test -run '^$' -bench 'RunTraced|CacheReplay' -benchmem
func BenchmarkRunTraced(b *testing.B) {
	c := experiments.BnrE()
	cfg := sm.DefaultConfig()
	cfg.Procs = 16
	b.ReportAllocs()
	refs := 0
	for i := 0; i < b.N; i++ {
		res, err := sm.RunTraced(c, cfg, func([]trace.Ref) {})
		if err != nil {
			b.Fatal(err)
		}
		refs += res.Reads + res.Writes
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkServerRoute measures one in-process locusd Server.Route round
// trip — admit, enqueue, shard wake-up, evaluate, answer — from a single
// caller against a default Config on the paper's circuit: the package-
// level twin of BENCHMARK.json's locusd.inproc_route_us.
// BenchmarkServerRouteParallel is its locusd.inproc_ops_per_s: 16 callers
// per CPU, so shards are busy and batches form.
//
//	go test -run '^$' -bench ServerRoute -benchmem
func BenchmarkServerRoute(b *testing.B) {
	route := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := route(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerRouteParallel(b *testing.B) {
	route := benchServer(b)
	var next atomic.Int64
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := route(int(next.Add(1))); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchServer stands up a default-Config locusd over bnrE and returns
// the call that routes the circuit's i-th wire (mod its wire count).
func benchServer(b *testing.B) (route func(i int) error) {
	c := experiments.BnrE()
	srv, err := locusd.New(locusd.Config{}, c)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	ctx := context.Background()
	return func(i int) error {
		_, err := srv.Route(ctx, locusd.RouteRequest{Circuit: c.Name, Wire: c.Wires[i%len(c.Wires)]})
		return err
	}
}

// BenchmarkAssignment measures the static wire assignment phase.
func BenchmarkAssignment(b *testing.B) {
	c := experiments.BnrE()
	part, err := geom.NewPartition(c.Grid, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.AssignThreshold(c, part, 1000)
	}
}

// BenchmarkMPRunSmall measures a complete small message passing
// simulation end to end.
func BenchmarkMPRunSmall(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenParams{
		Name: "bench", Channels: 8, Grids: 96, Wires: 90, MeanSpan: 12, Seed: 3,
	})
	part, err := geom.NewPartition(c.Grid, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	asn := assign.AssignThreshold(c, part, 1000)
	cfg := mp.DefaultConfig(mp.SenderInitiated(2, 10))
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Run(c, asn, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketStructures regenerates the Section 4.3.1 packet
// structure ablation.
func BenchmarkPacketStructures(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.PacketStructures(c, s))(b)
		b.ReportMetric(rows[2].MBytes/rows[0].MBytes, "whole-region-over-bbox")
	}
}

// BenchmarkWireDistribution regenerates the Section 4.2 wire distribution
// ablation.
func BenchmarkWireDistribution(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.WireDistribution(c, s))(b)
		b.ReportMetric(float64(rows[1].CktHt)/float64(rows[0].CktHt), "dynamic-quality-ratio")
	}
}

// BenchmarkCostArrayDistribution regenerates the Section 4.1 strict
// ownership ablation.
func BenchmarkCostArrayDistribution(b *testing.B) {
	c := experiments.BnrE()
	s := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		rows := must(experiments.CostArrayDistribution(c, s))(b)
		b.ReportMetric(float64(rows[1].Packets)/float64(rows[0].Packets), "strict-packet-ratio")
	}
}
