package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"locusroute/benchmark/harness"
	"locusroute/internal/cache"
	"locusroute/internal/circuit"
	"locusroute/internal/experiments"
	"locusroute/internal/locusd"
	"locusroute/internal/par"
	"locusroute/internal/part"
	"locusroute/internal/reqtrace"
	"locusroute/internal/route"
	"locusroute/internal/store"
	"locusroute/internal/wire"
	"locusroute/pkg/locusroute"
)

// mallocs runs f three times and returns the fewest heap objects and
// bytes one run allocated. The probes run one at a time on an otherwise
// idle process, but the runtime itself allocates now and then (a GC
// worker starting); the minimum is f's own count.
func mallocs(f func()) (objects, bytes uint64) {
	for i := 0; i < 3; i++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		o, n := b.Mallocs-a.Mallocs, b.TotalAlloc-a.TotalAlloc
		if i == 0 || o < objects {
			objects = o
		}
		if i == 0 || n < bytes {
			bytes = n
		}
	}
	return objects, bytes
}

// bnrE is the canonical bnrE-like circuit every probe works on, so the
// exact counts are the same on every run whatever the seed.
func (p *probe) bnrE() (*circuit.Circuit, error) {
	return circuit.Generate(circuit.BnrELike(harness.CircuitSeed))
}

// wireCodec times the four codec directions over a sweep of the
// circuit's wires (so request sizes follow the circuit's length mix)
// and counts the bytes and allocations of one exchange.
func (p *probe) wireCodec() error {
	c, err := p.bnrE()
	if err != nil {
		return err
	}
	reqs := make([]wire.Request, len(c.Wires))
	resps := make([]wire.Response, len(c.Wires))
	reqBufs := make([][]byte, len(c.Wires))
	respBufs := make([][]byte, len(c.Wires))
	var reqBytes, respBytes int
	for i, w := range c.Wires {
		reqs[i] = wire.Request{Circuit: c.Name, WireID: w.ID, Pins: w.Pins}
		resps[i] = wire.Response{Shard: i % 4, WireID: w.ID, Cost: int64(40 * len(w.Pins)), PathCells: 30,
			CellsExamined: 600, BatchSize: 1, WaitMicros: 2000}
		if reqBufs[i], err = wire.AppendRequest(nil, &reqs[i]); err != nil {
			return err
		}
		if respBufs[i], err = wire.AppendResponse(nil, &resps[i]); err != nil {
			return err
		}
		reqBytes += 4 + len(reqBufs[i]) // the frame's length prefix
		respBytes += 4 + len(respBufs[i])
	}
	n := float64(len(c.Wires))
	sweeps := p.reps(200, 20)
	var buf []byte
	perOp := func(name string, f func(i int)) harness.Metric {
		vals := p.timed("wire", name, 5, time.Nanosecond, func() {
			for s := 0; s < sweeps; s++ {
				for i := range reqs {
					f(i)
				}
			}
		})
		for i := range vals {
			vals[i] /= float64(sweeps) * n
		}
		return harness.Summarise("ns", vals)
	}
	p.set("wire.req_encode_ns", perOp("AppendRequest", func(i int) { buf, _ = wire.AppendRequest(buf[:0], &reqs[i]) }))
	p.set("wire.req_decode_ns", perOp("DecodeRequest", func(i int) { _, _ = wire.DecodeRequest(reqBufs[i]) }))
	p.set("wire.resp_encode_ns", perOp("AppendResponse", func(i int) { buf, _ = wire.AppendResponse(buf[:0], &resps[i]) }))
	p.set("wire.resp_decode_ns", perOp("DecodeResponse", func(i int) { _, _ = wire.DecodeResponse(respBufs[i]) }))
	objects, _ := mallocs(func() {
		for i := range reqs {
			buf, _ = wire.AppendRequest(buf[:0], &reqs[i])
			_, _ = wire.DecodeRequest(reqBufs[i])
			buf, _ = wire.AppendResponse(buf[:0], &resps[i])
			_, _ = wire.DecodeResponse(respBufs[i])
		}
	})
	p.set("wire.allocs_per_exchange", harness.Count("count", float64(objects)/n))
	p.set("wire.req_bytes", harness.Count("bytes", float64(reqBytes)/n))
	p.set("wire.resp_bytes", harness.Count("bytes", float64(respBytes)/n))
	return nil
}

// routeKernel sweeps the circuit's wires through one reused
// Scratch against the routed cost array: the kernel as every backend
// and the serving path call it.
func (p *probe) routeKernel() error {
	c, err := p.bnrE()
	if err != nil {
		return err
	}
	_, arr := route.Sequential(c, route.Params{Iterations: 1})
	view := route.ArrayView{A: arr}
	scratch := route.NewScratch(c.Grid)
	params := route.DefaultParams()
	cells := 0
	sweep := func() {
		cells = 0
		for i := range c.Wires {
			cells += scratch.RouteWire(view, &c.Wires[i], params).CellsExamined
		}
	}
	sweeps := p.reps(20, 2)
	vals := p.timed("route", "RouteWire sweep", 5, time.Nanosecond, func() {
		for s := 0; s < sweeps; s++ {
			sweep()
		}
	})
	n := float64(len(c.Wires))
	for i := range vals {
		vals[i] /= float64(sweeps) * n
	}
	objects, _ := mallocs(sweep)
	p.set("route.wire_ns", harness.Summarise("ns", vals))
	p.set("route.cells_per_wire", harness.Count("count", float64(cells)/n))
	p.set("route.allocs_per_wire", harness.Count("count", float64(objects)/n))
	return nil
}

// backends routes the 10x-scaled preset — batch_route's circuit —
// sequentially and through the partitioned router at 1 and 4 leaves,
// plain and negotiated.
func (p *probe) backends() error {
	c, err := circuit.Generate(circuit.Scaled(circuit.BnrELike(harness.CircuitSeed), 10))
	if err != nil {
		return err
	}
	params := route.DefaultParams()
	reps := p.reps(5, 1)

	var seq route.Result
	seqMS := p.timed("backend", "route.Sequential x10", reps, time.Millisecond, func() { seq, _ = route.Sequential(c, params) })
	objects, bytes := mallocs(func() { route.Sequential(c, params) })
	p.set("backend.seq_ms", harness.Summarise("ms", seqMS))
	p.set("backend.allocs_per_run", harness.Single("count", float64(objects)))
	p.set("backend.mb_per_run", harness.Single("MB", float64(bytes)/1e6))

	partitioned := func(name string, n int, cfg part.Config) ([]float64, route.Result, *part.Stats, error) {
		var res route.Result
		var st *part.Stats
		var err error
		ms := p.timed("part", name, n, time.Millisecond, func() {
			var e error
			if res, _, st, e = part.Route(c, params, cfg); e != nil {
				err = e
			}
		})
		return ms, res, st, err
	}
	p1MS, p1, _, err := partitioned("part.Route partitions=1", reps, part.Config{Partitions: 1})
	if err != nil {
		return err
	}
	p4MS, _, st4, err := partitioned("part.Route partitions=4", reps, part.Config{Partitions: 4})
	if err != nil {
		return err
	}
	negMS, _, _, err := partitioned("part.Route negotiated", p.reps(3, 1), part.Config{Partitions: 4, Negotiated: &part.Negotiated{}})
	if err != nil {
		return err
	}
	p.check("part partitions=1 equals route.Sequential", p1 == seq, "partitions=1 %+v, sequential %+v", p1, seq)
	p.set("part.p1_ms", harness.Summarise("ms", p1MS))
	p.set("part.p4_ms", harness.Summarise("ms", p4MS))
	// Base: backend.seq_ms, the sequential router on the same circuit.
	p.set("part.speedup_x", harness.Single("x", harness.Median(seqMS)/harness.Median(p4MS)))
	p.set("part.boundary_frac", harness.Count("frac", st4.BoundaryFrac()))
	p.set("part.negotiated_ms", harness.Summarise("ms", negMS))
	return nil
}

// messagePassing runs the paper's standard schedule on the DES: host
// time is the simulator's speed, simulated figures are the model's
// results and must never move under a host-side optimisation.
func (p *probe) messagePassing() error {
	c, err := p.bnrE()
	if err != nil {
		return err
	}
	be, err := locusroute.NewMessagePassing(locusroute.WithStrategy(locusroute.SenderInitiated(2, 10)), locusroute.WithProcs(16))
	if err != nil {
		return err
	}
	var res locusroute.Result
	ms := p.timed("mp", "DES SenderInitiated(2,10) 16 procs", p.reps(3, 1), time.Millisecond, func() {
		var e error
		if res, e = be.Route(context.Background(), locusroute.Request{Circuit: c}); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	p.set("mp.des_run_ms", harness.Summarise("ms", ms))
	p.set("mp.sim_time_ns", harness.Count("ns", float64(res.SimTime.Nanoseconds())))
	p.set("mp.update_bytes", harness.Count("bytes", float64(res.MP.UpdateBytes)))
	p.set("mp.packets", harness.Count("count", float64(res.MP.Net.Packets)))
	p.set("mp.packets_per_host_s", harness.Single("1/s", float64(res.MP.Net.Packets)/(harness.Median(ms)/1e3)))
	p.set("mp.message_time_frac", harness.Count("frac", res.MP.MessageFraction()))
	return nil
}

// sharedMemory runs the traced shared-memory router and replays its
// reference trace through the coherence simulator at 8-byte lines.
func (p *probe) sharedMemory() error {
	c, err := p.bnrE()
	if err != nil {
		return err
	}
	be, err := locusroute.NewTracedSharedMemory(locusroute.WithProcs(16))
	if err != nil {
		return err
	}
	var res locusroute.Result
	runMS := p.timed("sm", "traced run 16 procs", p.reps(3, 1), time.Millisecond, func() {
		var e error
		if res, e = be.Route(context.Background(), locusroute.Request{Circuit: c}); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	var traffic cache.Traffic
	replayMS := p.timed("cache", "Replay line=8", p.reps(3, 1), time.Millisecond, func() {
		var e error
		if traffic, e = cache.Replay(res.RefTrace, 16, 8); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	p.set("sm.traced_run_ms", harness.Summarise("ms", runMS))
	p.set("sm.trace_refs", harness.Count("count", float64(res.RefTrace.Len())))
	p.set("cache.replay_ms", harness.Summarise("ms", replayMS))
	p.set("cache.bus_bytes", harness.Count("bytes", float64(traffic.Bytes())))
	return nil
}

// store times the circuit store directly: upload, single-op reroute
// mutations with and without an fsynced WAL, and recovery of prepared
// directories by WAL replay and by snapshot load.
func (p *probe) store() error {
	c, err := p.bnrE()
	if err != nil {
		return err
	}
	var mem *store.Store
	uploadMS := p.timed("store", "Upload bnrE", p.reps(5, 1), time.Millisecond, func() {
		var e error
		if mem, e = store.Open(store.Config{}); e == nil {
			_, e = mem.Upload(c)
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	p.set("store.upload_ms", harness.Summarise("ms", uploadMS))

	n := p.reps(400, 50)
	mutate := func(name string, st *store.Store) ([]float64, int, error) {
		cells := 0
		var err error
		i := 0
		us := p.timed("store", name, n, time.Microsecond, func() {
			res, e := st.Mutate(c.Name, []store.Op{{Kind: store.OpReroute, WireID: c.Wires[i%len(c.Wires)].ID}})
			i++
			if e != nil {
				err = e
				return
			}
			cells += res.Results[0].CellsExamined
		})
		return us, cells, err
	}
	memUS, memCells, err := mutate("Mutate reroute (memory)", mem)
	if err != nil {
		return err
	}

	dir, err := p.sb.TempDir("store-probe")
	if err != nil {
		return err
	}
	disk, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	if _, err := disk.Upload(c); err != nil {
		return err
	}
	walBefore, err := fileSize(filepath.Join(dir, "wal.bin"))
	if err != nil {
		return err
	}
	diskUS, diskCells, err := mutate("Mutate reroute (fsynced WAL)", disk)
	if err != nil {
		return err
	}
	walAfter, err := fileSize(filepath.Join(dir, "wal.bin"))
	if err != nil {
		return err
	}
	want, _ := disk.Get(c.Name)
	p.check("store mutations examine the same cells with and without a WAL", memCells == diskCells, "memory %d, disk %d", memCells, diskCells)
	p.set("store.mutate_mem_us", harness.Summarise("us", memUS))
	p.set("store.mutate_fsync_us", harness.Summarise("us", diskUS))
	p.set("store.wal_bytes_per_mutation", harness.Count("bytes", float64(walAfter-walBefore)/float64(n)))
	p.set("store.mutate_cells_examined", harness.Count("count", float64(diskCells)))

	// The WAL is fsynced per record, so a copy taken now is what a crash
	// would leave: upload + n mutation records to replay.
	crashed, err := p.sb.TempDir("store-crashed")
	if err != nil {
		return err
	}
	if err := copyDir(dir, crashed); err != nil {
		return err
	}
	if err := disk.Close(); err != nil { // snapshots; dir now recovers by snapshot load
		return err
	}
	reopen := func(name, dir string) (float64, store.RecoveryStats, error) {
		var st *store.Store
		var err error
		d := p.rec.Time("store", name, func() { st, err = store.Open(store.Config{Dir: dir}) })
		if err != nil {
			return 0, store.RecoveryStats{}, err
		}
		got, _ := st.Get(c.Name)
		p.check(name+" reproduces the arrays", got.ArrayHash == want.ArrayHash && got.Epoch == want.Epoch,
			"got %s epoch %d, want %s epoch %d", got.ArrayHash, got.Epoch, want.ArrayHash, want.Epoch)
		rs := st.Recovery()
		return d.Seconds(), rs, st.Close()
	}
	replayS, rs, err := reopen("Open (WAL replay)", crashed)
	if err != nil {
		return err
	}
	p.check("WAL replay applied every record", rs.ReplayedRecords == n+1, "replayed %d, want %d", rs.ReplayedRecords, n+1)
	snapS, _, err := reopen("Open (snapshot load)", dir)
	if err != nil {
		return err
	}
	p.set("store.replay_records_per_s", harness.Single("1/s", float64(rs.ReplayedRecords)/replayS))
	p.set("store.snapshot_load_ms", harness.Single("ms", snapS*1e3))
	return nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// inProcess calls Server.Route with no transport: one caller for the
// latency a request cannot go below, 32 waiting callers for the rate
// the dispatch loop sustains. Every retained trace record must split
// into stages that sum to its wall time exactly.
func (p *probe) inProcess() error {
	c, err := p.bnrE()
	if err != nil {
		return err
	}
	tracer := reqtrace.New(reqtrace.Options{Capacity: 1 << 15, Sample: 1})
	srv, err := locusd.New(locusd.Config{Tracer: tracer}, c)
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	var failed sync.Map
	call := func(i int) {
		if _, err := srv.Route(ctx, locusd.RouteRequest{Circuit: c.Name, Wire: c.Wires[i%len(c.Wires)]}); err != nil {
			failed.Store(i, err)
		}
	}
	i := 0
	us := p.timed("locusd", "Server.Route one caller", p.reps(300, 50), time.Microsecond, func() { call(i); i++ })
	p.set("locusd.inproc_route_us", harness.Summarise("us", us))

	const callers = 32
	window := time.Duration(p.reps(2000, 500)) * time.Millisecond
	counts := make([]int, callers)
	var wg sync.WaitGroup
	took := p.rec.Time("locusd", "Server.Route 32 callers", func() {
		end := time.Now().Add(window)
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := g; time.Now().Before(end); k += callers {
					call(k)
					counts[g]++
				}
			}(g)
		}
		wg.Wait()
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	p.set("locusd.inproc_ops_per_s", harness.Single("1/s", float64(total)/took.Seconds()))

	nfailed := 0
	failed.Range(func(_, _ any) bool { nfailed++; return true })
	p.check("in-process routes all succeed", nfailed == 0, "%d failed", nfailed)
	recs := tracer.Records()
	bad := 0
	for _, r := range recs {
		var sum int64
		for _, ns := range r.Stages {
			sum += ns
		}
		if sum != r.Wall {
			bad++
		}
	}
	p.check("locusd stages sum to server wall in every trace record", len(recs) > 0 && bad == 0, "%d of %d records do not", bad, len(recs))
	return nil
}

// experiments regenerates the paper's tables in process, serially and
// two at a time, and checks the bytes either way.
func (p *probe) experiments() error {
	names, want := experiments.TableNames(), harness.PaperAllSHA256
	if p.quick {
		names, want = []string{"1"}, harness.PaperTable1SHA256
	}
	bnrE, mdc := experiments.BnrE(), experiments.MDC()
	render := func(workers int) (float64, error) {
		s := experiments.DefaultSetup()
		s.Pool = par.New(workers)
		var tables []string
		var err error
		d := p.rec.Time("experiments", "RenderSet par="+strconv.Itoa(workers), func() {
			tables, err = experiments.RenderSet(names, bnrE, mdc, s)
		})
		if err != nil {
			return 0, err
		}
		sum := sha256.Sum256([]byte(strings.Join(tables, "\n") + "\n"))
		got := hex.EncodeToString(sum[:])
		p.check("tables rendered at par="+strconv.Itoa(workers)+" are byte-identical to the pinned output", got == want, "sha256 %s, want %s", got, want)
		return d.Seconds(), nil
	}
	par1, err := render(1)
	if err != nil {
		return err
	}
	par2, err := render(2)
	if err != nil {
		return err
	}
	p.set("experiments.all_par1_s", harness.Single("s", par1))
	// Base: experiments.all_par1_s, the same tables rendered serially.
	p.set("par.speedup_x", harness.Single("x", par1/par2))
	return nil
}
