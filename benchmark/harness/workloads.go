package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"locusroute/internal/wire"
	"locusroute/pkg/locusroute"
)

// The four workloads. Each stresses different layers; README.md gives
// the reason for each.
const (
	ServeRead  = "serve_read"
	ServeMixed = "serve_mixed"
	BatchRoute = "batch_route"
	PaperSim   = "paper_sim"
)

// Workloads lists the workload names in report order.
var Workloads = []string{ServeRead, ServeMixed, BatchRoute, PaperSim}

// Binaries are the cmd/ packages the workloads run as child processes.
var Binaries = []string{"./cmd/locusd", "./cmd/paper", "./cmd/circuitgen"}

// PaperAllSHA256 is the byte-identity oracle of `paper -all` at every
// -par (ROADMAP standing constraint); PaperTable1SHA256 is the same for
// the `-table 1` smoke that quick mode runs.
const (
	PaperAllSHA256    = "848fd4f18a546f8c97d99724c4d85ad0ec9a586cb4f009fd7109080e9f791427"
	PaperTable1SHA256 = "a412b85ecd96c111facfe0192e9906459a96ca08e97ae6ceb0ce43307fb490a4"
)

// servedCircuit is the name locusd gives the bnrE preset.
const servedCircuit = "bnrE-like"

// CircuitSeed generates every preset circuit: seed 1, the repository's
// canonical benchmark circuits (the ones `paper` routes, and locusd's
// and circuitgen's default). The benchmark's own -seed drives what is
// asked of them — the request and mutation streams, batch_route's wire
// order — not the circuits: routing work differs by ±8% between
// generator seeds (68 ms to 85 ms per Route on the 10x preset), which
// would put input variance, not the program, into every comparison
// across seeds.
const CircuitSeed = 1

// readRate is serve_read's open-loop arrival rate: low load, where the
// batch window rather than queueing sets latency.
const readRate = 300

// StageNames are locusd's six request stages in protocol order (the
// traced frame carries the index as a byte that is never renumbered).
var StageNames = [...]string{"admit", "queue", "batch", "route", "commit", "respond"}

// Options sizes one workload run.
type Options struct {
	Seed      int64
	Warmup    time.Duration
	Rounds    int
	RoundLen  time.Duration
	SetupReps int
	// Quick makes paper_sim render table 1 instead of every table.
	Quick bool
	// Trace, when non-nil, makes the run a traced one: locusd runs with
	// -trace, requests go as traced frames, and every request leaves a
	// client span with the server's stages as children. End-to-end
	// metrics are never taken from a traced run.
	Trace *Recorder
}

// Sizing is the one rule that turns the command-line flags into a run's
// shape: a 3 s warm-up, then seconds cut into five rounds, five set-ups;
// or quick mode's half-second warm-up, single 3 s round and single
// set-up. Callers adjust the fields they need to differ.
func Sizing(seed int64, seconds float64, quick bool) Options {
	o := Options{Seed: seed, Warmup: 3 * time.Second, Rounds: 5, SetupReps: 5, Quick: quick}
	if quick {
		o.Warmup, o.Rounds, o.SetupReps, seconds = 500*time.Millisecond, 1, 1, QuickSeconds
	}
	o.RoundLen = time.Duration(seconds / float64(o.Rounds) * float64(time.Second))
	return o
}

// QuickSeconds is quick mode's measured window.
const QuickSeconds = 3

// Check is one correctness assertion a workload made.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ServerView is what the server said about the requests it answered:
// batch shape from every response, the stage breakdown from traced
// ones.
type ServerView struct {
	N            int // OK route responses
	BatchSizeSum int
	WaitUSSum    int64
	Traced       int // responses that carried stages
	StageNs      [len(StageNames)]int64
	// OutsideNs sums client-observed latency minus the server's stages
	// over traced responses: transport + codec + client time.
	OutsideNs int64
}

func (v *ServerView) merge(o ServerView) {
	v.N += o.N
	v.BatchSizeSum += o.BatchSizeSum
	v.WaitUSSum += o.WaitUSSum
	v.Traced += o.Traced
	v.OutsideNs += o.OutsideNs
	for i := range v.StageNs {
		v.StageNs[i] += o.StageNs[i]
	}
}

// Result is one workload run.
type Result struct {
	Workload string
	Setup    []float64 // seconds, one per set-up repetition
	Rec      *Recording
	// PeakRSSMB is the peak resident set of each instance of the program
	// under test: one value, or one per child for paper_sim.
	PeakRSSMB []float64
	Checks    []Check
	Server    ServerView
	// ReplayRestartMS and SnapshotRestartMS are serve_mixed's two
	// restarts: exec to healthy after SIGKILL (WAL replay) and after
	// SIGTERM (snapshot load).
	ReplayRestartMS, SnapshotRestartMS float64
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// Correct reports whether every check passed and no answer was wrong.
func (r *Result) Correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Rec.Tally.Wrong == 0 && r.Rec.Other.Wrong == 0
}

// Attempted and Failed count operations of every kind in the window.
func (r *Result) Attempted() int { return r.Rec.Tally.Sent + r.Rec.Other.Sent }
func (r *Result) Failed() int    { return r.Rec.Tally.Failed() + r.Rec.Other.Failed() }

// EndToEnd derives the end-to-end metrics: each is the median over
// rounds (or set-up repetitions) of the per-round value.
func (r *Result) EndToEnd() map[string]Metric {
	rec := r.Rec
	return map[string]Metric{
		"setup_s": Summarise("s", r.Setup),
		"p50_us": Summarise("us", rec.PerRound(func(rd Round) float64 {
			v, _ := Percentile(Sorted(rd.LatUS), 50)
			return v
		})),
		"ops_per_s": Summarise("1/s", rec.PerRound(func(rd Round) float64 {
			return float64(rd.OK) / rd.Seconds
		})),
		"rss_mb": Summarise("MB", r.PeakRSSMB),
	}
}

// Client derives the instrument's own per-layer metrics from the run.
func (r *Result) Client() map[string]Metric {
	rec := r.Rec
	lat, late := Sorted(rec.LatUS()), Sorted(rec.LateUS)
	tail := func(sorted []float64, pct int) Metric {
		v, ok := Percentile(sorted, pct)
		m := Single("us", v)
		m.Unsupported = !ok
		return m
	}
	max := 0.0
	if len(lat) > 0 {
		max = lat[len(lat)-1]
	}
	return map[string]Metric{
		"client.cpu_us_per_op": Summarise("us", rec.PerRound(func(rd Round) float64 {
			return rd.CPUSeconds * 1e6 / float64(rd.OK+rd.OtherOK)
		})),
		"client.sent":        Single("count", float64(r.Attempted())),
		"client.ok":          Single("count", float64(rec.Tally.OK+rec.Other.OK)),
		"client.shed":        Single("count", float64(rec.Tally.Shed+rec.Other.Shed)),
		"client.expired":     Single("count", float64(rec.Tally.Expired+rec.Other.Expired)),
		"client.errors":      Single("count", float64(rec.Tally.Errors+rec.Other.Errors+rec.Tally.Wrong+rec.Other.Wrong)),
		"client.late_p99_us": tail(late, 99),
		"client.p90_us":      tail(lat, 90),
		"client.p99_us":      tail(lat, 99),
		"client.max_us":      Single("us", max),
	}
}

// Run dispatches to the named workload.
func Run(sb *Sandbox, name string, o Options) (*Result, error) {
	switch name {
	case ServeRead:
		return runServeRead(sb, o)
	case ServeMixed:
		return runServeMixed(sb, o)
	case BatchRoute:
		return runBatchRoute(sb, o)
	case PaperSim:
		return runPaperSim(sb, o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

// conns is the client connection count: two, but never more than the
// machine has processors, so the generator does not contend with the
// server it measures.
func conns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// setupLocusd starts locusd reps times to sample set-up time, killing
// all but the last, which it returns running. args is called per
// repetition so each can get a fresh store directory.
func setupLocusd(sb *Sandbox, reps int, args func() ([]string, error)) (*Locusd, []float64, error) {
	var setups []float64
	for rep := 0; ; rep++ {
		a, err := args()
		if err != nil {
			return nil, nil, err
		}
		d, took, err := sb.StartLocusd(a...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if rep >= reps-1 {
			return d, setups, nil
		}
		d.Kill()
	}
}

// answer is the part of a route response that is a pure function of
// (cost array, pins) — what correctness is checked on.
type answer struct {
	Cost          int64 `json:"cost"`
	PathCells     int   `json:"path_cells"`
	CellsExamined int   `json:"cells_examined"`
}

// PostRoute sends one wire of the served bnrE circuit to POST /v1/route
// (commit=false) and returns the raw response.
func PostRoute(client *http.Client, addr string, w *locusroute.Wire) (*http.Response, error) {
	body := struct {
		Circuit string   `json:"circuit"`
		Wire    int      `json:"wire"`
		Pins    [][2]int `json:"pins"`
	}{Circuit: servedCircuit, Wire: w.ID}
	for _, p := range w.Pins {
		body.Pins = append(body.Pins, [2]int{p.X, p.Y})
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return client.Post("http://"+addr+"/v1/route", "application/json", bytes.NewReader(buf))
}

// httpRoute evaluates one wire over the JSON surface.
func httpRoute(client *http.Client, addr string, w *locusroute.Wire) (answer, error) {
	resp, err := PostRoute(client, addr, w)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("POST /v1/route wire %d: %s", w.ID, resp.Status)
	}
	var a answer
	err = json.NewDecoder(resp.Body).Decode(&a)
	return a, err
}

// oracle asks the JSON surface for every wire's answer once, before any
// load: with commit=false the replicas never change, so every later
// binary-protocol answer for the same pins must equal it — a
// cross-transport, cross-shard identity check.
func oracle(addr string, wires []locusroute.Wire) ([]answer, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	out := make([]answer, len(wires))
	errs := make([]error, len(wires))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i := range wires {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = httpRoute(client, addr, &wires[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// wireStream is the seeded request stream: indices into the served
// circuit's wire list, so requests carry the circuit's own
// short-wire-dominated length mix.
func wireStream(seed int64, wires int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 4096)
	for i := range out {
		out[i] = rng.Intn(wires)
	}
	return out
}

func classify(s wire.Status) Outcome {
	switch s {
	case wire.StatusOK:
		return Good
	case wire.StatusShed, wire.StatusRateLimited:
		return Shed
	case wire.StatusDeadline, wire.StatusInfeasible:
		return Expired
	}
	return Errored
}

// reader is one binary-protocol connection issuing route requests.
type reader struct {
	addr   string
	conn   *wire.Conn
	req    wire.Request
	view   ServerView
	trace  *Recorder
	worker int
}

func newReader(addr string, worker int, trace *Recorder) (*reader, error) {
	conn, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &reader{addr: addr, conn: conn, trace: trace, worker: worker,
		req: wire.Request{Circuit: servedCircuit, Traced: trace != nil}}, nil
}

// route sends wire w as request i and returns the response; a transport
// failure reconnects for the next call and returns nil.
func (r *reader) route(i int, w *locusroute.Wire) *wire.Response {
	r.req.WireID, r.req.Pins = w.ID, w.Pins
	if r.trace != nil {
		r.req.TraceID = fmt.Sprintf("w%d-%07d", r.worker, i)
	}
	t0 := time.Now()
	resp, err := r.conn.Do(&r.req)
	lat := time.Since(t0)
	if err != nil {
		// Reconnect for the next call; if that fails too the closed
		// connection stays and every later call errors the same way.
		r.conn.Close()
		if c, derr := wire.Dial(r.addr); derr == nil {
			r.conn = c
		}
		return nil
	}
	if resp.Status != wire.StatusOK {
		return resp
	}
	r.view.N++
	r.view.BatchSizeSum += resp.BatchSize
	r.view.WaitUSSum += resp.WaitMicros
	if len(resp.Stages) > 0 {
		var server int64
		for _, st := range resp.Stages {
			if int(st.Stage) < len(StageNames) {
				r.view.StageNs[st.Stage] += st.Ns
				server += st.Ns
			}
		}
		r.view.Traced++
		r.view.OutsideNs += lat.Nanoseconds() - server
		r.spans(t0, lat, server, resp)
	}
	return resp
}

// spans records the client span of one traced request and the server's
// stages as its children. The two clocks are not synchronised, so the
// stages are laid end to end in the middle of the client interval: the
// time outside them is split evenly between the way in and the way out.
func (r *reader) spans(t0 time.Time, lat time.Duration, server int64, resp *wire.Response) {
	id := resp.RequestID
	r.trace.Add(Span{Name: "route", Layer: "client", ID: id, Start: t0, Dur: lat})
	at := t0.Add((lat - time.Duration(server)) / 2)
	for _, st := range resp.Stages {
		if int(st.Stage) >= len(StageNames) {
			continue
		}
		d := time.Duration(st.Ns)
		r.trace.Add(Span{Name: StageNames[st.Stage], Layer: "locusd", ID: id, Parent: id, Start: at, Dur: d})
		at = at.Add(d)
	}
}

func runServeRead(sb *Sandbox, o Options) (*Result, error) {
	res := &Result{Workload: ServeRead}
	circ, err := locusroute.BnrE(CircuitSeed)
	if err != nil {
		return nil, err
	}
	args := []string{"-bench", "bnrE", "-seed", strconv.Itoa(CircuitSeed)}
	if o.Trace != nil {
		args = append(args, "-trace")
	}
	d, setups, err := setupLocusd(sb, o.SetupReps, func() ([]string, error) { return args, nil })
	if err != nil {
		return nil, err
	}
	defer d.Kill()
	res.Setup = setups

	want, err := oracle(d.HTTP, circ.Wires)
	if err != nil {
		return nil, err
	}
	readers := make([]*reader, conns())
	for w := range readers {
		if readers[w], err = newReader(d.Bin, w, o.Trace); err != nil {
			return nil, err
		}
		defer func(r *reader) { r.conn.Close() }(readers[w])
	}
	stream := wireStream(o.Seed, len(circ.Wires))
	loop := OpenLoop{Rate: readRate, Workers: len(readers), Warmup: o.Warmup,
		Rounds: o.Rounds, RoundLen: o.RoundLen, CPU: d.CPU}
	res.Rec = loop.Run(func(worker, i int) Outcome {
		idx := stream[i%len(stream)]
		resp := readers[worker].route(i, &circ.Wires[idx])
		if resp == nil {
			return Errored
		}
		if out := classify(resp.Status); out != Good {
			return out
		}
		got := answer{Cost: resp.Cost, PathCells: resp.PathCells, CellsExamined: resp.CellsExamined}
		if resp.WireID != circ.Wires[idx].ID || got != want[idx] {
			return Wrong
		}
		return Good
	})
	for _, r := range readers {
		res.Server.merge(r.view)
	}
	res.PeakRSSMB = []float64{d.PeakRSSMB()}
	err = d.Stop()
	res.check("locusd drains and exits 0 on SIGTERM", err == nil, "%v", err)
	return res, nil
}

// circuitState is the restart-identity fingerprint /v1/circuits gives.
type circuitState struct {
	ArraySHA256   string `json:"array_sha256"`
	MutationEpoch uint64 `json:"mutation_epoch"`
}

func fetchState(addr string) (circuitState, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + addr + "/v1/circuits")
	if err != nil {
		return circuitState{}, err
	}
	defer resp.Body.Close()
	var doc struct {
		Circuits []struct {
			Name string `json:"name"`
			circuitState
		} `json:"circuits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return circuitState{}, err
	}
	for _, c := range doc.Circuits {
		if c.Name == servedCircuit {
			return c.circuitState, nil
		}
	}
	return circuitState{}, fmt.Errorf("/v1/circuits does not list %s", servedCircuit)
}

func runServeMixed(sb *Sandbox, o Options) (*Result, error) {
	res := &Result{Workload: ServeMixed}
	circ, err := locusroute.BnrE(CircuitSeed)
	if err != nil {
		return nil, err
	}
	var dir string
	storeArgs := func() []string {
		return []string{"-bench", "bnrE", "-seed", strconv.Itoa(CircuitSeed), "-store-dir", dir}
	}
	d, setups, err := setupLocusd(sb, o.SetupReps, func() ([]string, error) {
		if dir, err = sb.TempDir("store"); err != nil {
			return nil, err
		}
		if o.Trace != nil {
			return append(storeArgs(), "-trace"), nil
		}
		return storeArgs(), nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { d.Kill() }()
	res.Setup = setups

	rd, err := newReader(d.Bin, 0, o.Trace)
	if err != nil {
		return nil, err
	}
	defer func() { rd.conn.Close() }()
	writer, err := wire.Dial(d.Bin)
	if err != nil {
		return nil, err
	}
	defer writer.Close()

	// Reads and writes draw from independent seeded streams, so neither
	// side's pace changes what the other asks for.
	reads := wireStream(o.Seed, len(circ.Wires))
	writes := wireStream(o.Seed+1, len(circ.Wires))
	var acked uint64 // every acknowledged write since start, warm-up included
	mut := wire.Mutate{Circuit: servedCircuit, Ops: make([]wire.MutateOp, 1)}
	stopWrites := Background(func(i int) Outcome {
		id := circ.Wires[writes[i%len(writes)]].ID
		mut.Ops[0] = wire.MutateOp{Op: wire.OpReroute, WireID: id}
		t0 := time.Now()
		resp, err := writer.DoMutate(&mut)
		if err != nil {
			return Errored
		}
		if out := classify(resp.Status); out != Good {
			return out
		}
		acked++
		if o.Trace != nil {
			o.Trace.Add(Span{Name: "mutate", Layer: "client", ID: fmt.Sprintf("m%07d", i), Start: t0, Dur: time.Since(t0)})
		}
		// One single-op batch bumps the epoch by exactly one, so the
		// epoch a write reports is the count of writes acknowledged.
		if resp.Epoch != acked || len(resp.Results) != 1 || resp.Results[0].WireID != id {
			return Wrong
		}
		return Good
	})
	loop := ClosedLoop{Warmup: o.Warmup, Rounds: o.Rounds, RoundLen: o.RoundLen, CPU: d.CPU}
	res.Rec = loop.Run(func(i int) Outcome {
		w := &circ.Wires[reads[i%len(reads)]]
		resp := rd.route(i, w)
		if resp == nil {
			return Errored
		}
		if out := classify(resp.Status); out != Good {
			return out
		}
		// The arrays move under the reads, so only the shape is checked.
		if resp.WireID != w.ID || resp.PathCells <= 0 {
			return Wrong
		}
		return Good
	})
	res.Rec.AddOther(stopWrites())
	res.PeakRSSMB = []float64{d.PeakRSSMB()}

	before, err := fetchState(d.HTTP)
	if err != nil {
		return nil, err
	}
	res.check("mutation_epoch equals acknowledged writes", before.MutationEpoch == acked,
		"epoch %d, acknowledged %d", before.MutationEpoch, acked)

	// Crash: the WAL alone must reproduce the arrays.
	d.Kill()
	d2, took, err := sb.StartLocusd(storeArgs()...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	d = d2
	res.ReplayRestartMS = took.Seconds() * 1e3
	after, err := fetchState(d.HTTP)
	if err != nil {
		return nil, err
	}
	res.check("SIGKILL restart (WAL replay) is identical", after == before, "before %+v, after %+v", before, after)

	// Clean shutdown: Close snapshots, the next start loads it.
	err = d.Stop()
	res.check("locusd drains and exits 0 on SIGTERM", err == nil, "%v", err)
	d3, took, err := sb.StartLocusd(storeArgs()...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGTERM: %w", err)
	}
	d = d3
	res.SnapshotRestartMS = took.Seconds() * 1e3
	after, err = fetchState(d.HTTP)
	if err != nil {
		return nil, err
	}
	res.check("SIGTERM restart (snapshot) is identical", after == before, "before %+v, after %+v", before, after)
	err = d.Stop()
	res.check("restarted locusd exits 0 on SIGTERM", err == nil, "%v", err)
	return res, nil
}

// quality is what two routings of one circuit must agree on.
type quality struct {
	height, occupancy, cells int64
}

func qualityOf(r locusroute.Result) quality {
	return quality{r.CircuitHeight, r.Occupancy, r.CellsExamined}
}

func runBatchRoute(sb *Sandbox, o Options) (*Result, error) {
	res := &Result{Workload: BatchRoute}
	dir, err := sb.TempDir("circuit")
	if err != nil {
		return nil, err
	}
	file := filepath.Join(dir, "bnrE-x10.ckt")
	var circ *locusroute.Circuit
	var be locusroute.Backend
	// Set-up is everything between "I have a seed" and "I can route":
	// generate the circuit file, parse it, construct the backend.
	for rep := 0; rep < o.SetupReps; rep++ {
		t0 := time.Now()
		gen, err := sb.Start("circuitgen", "-bench", "bnrE", "-scale", "10",
			"-seed", strconv.Itoa(CircuitSeed), "-o", file)
		if err != nil {
			return nil, err
		}
		if err := gen.Wait(time.Minute); err != nil {
			return nil, fmt.Errorf("circuitgen: %w; stderr tail:\n%s", err, gen.StderrTail())
		}
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		circ, err = locusroute.ReadCircuit(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if be, err = locusroute.NewPartitioned(locusroute.WithPartitions(4)); err != nil {
			return nil, err
		}
		res.Setup = append(res.Setup, time.Since(t0).Seconds())
	}
	// The seed picks the order the wires are routed in: the same wires,
	// so about the same work, but a different routing.
	rand.New(rand.NewSource(o.Seed)).Shuffle(len(circ.Wires), func(i, j int) {
		circ.Wires[i], circ.Wires[j] = circ.Wires[j], circ.Wires[i]
	})

	ctx := context.Background()
	req := locusroute.Request{Circuit: circ}
	seq, err := locusroute.NewSequential()
	if err != nil {
		return nil, err
	}
	p1, err := locusroute.NewPartitioned(locusroute.WithPartitions(1))
	if err != nil {
		return nil, err
	}
	seqRes, err := seq.Route(ctx, req)
	if err != nil {
		return nil, err
	}
	p1Res, err := p1.Route(ctx, req)
	if err != nil {
		return nil, err
	}
	res.check("partitions=1 equals sequential", qualityOf(p1Res) == qualityOf(seqRes),
		"partitions=1 %+v, sequential %+v", qualityOf(p1Res), qualityOf(seqRes))
	ref, err := be.Route(ctx, req)
	if err != nil {
		return nil, err
	}
	want := qualityOf(ref)

	loop := ClosedLoop{Warmup: o.Warmup, Rounds: o.Rounds, RoundLen: o.RoundLen, CPU: SelfCPU}
	res.Rec = loop.Run(func(i int) Outcome {
		var got locusroute.Result
		var err error
		o.Trace.Time("part", "Route partitions=4", func() { got, err = be.Route(ctx, req) })
		if err != nil {
			return Errored
		}
		if qualityOf(got) != want {
			return Wrong
		}
		return Good
	})
	res.PeakRSSMB = []float64{SelfPeakRSSMB()}
	return res, nil
}

func runPaperSim(sb *Sandbox, o Options) (*Result, error) {
	res := &Result{Workload: PaperSim}
	// Set-up is what `paper` does before the first simulation: start,
	// parse flags, generate both benchmark circuits. Invoked with
	// nothing to render it does exactly that and exits 1 with a usage
	// message.
	for rep := 0; rep < o.SetupReps; rep++ {
		t0 := time.Now()
		c, err := sb.Start("paper")
		if err != nil {
			return nil, err
		}
		_ = c.Wait(time.Minute) // exits 1 by design; checked through stderr below
		res.Setup = append(res.Setup, time.Since(t0).Seconds())
		if !bytes.Contains([]byte(c.StderrTail()), []byte("pass -table")) {
			return nil, fmt.Errorf("paper (no arguments): expected the usage message, got:\n%s", c.StderrTail())
		}
	}
	args, want := []string{"-all", "-par", "2"}, PaperAllSHA256
	if o.Quick {
		args, want = []string{"-table", "1", "-par", "2"}, PaperTable1SHA256
	}
	var cpu time.Duration
	loop := ClosedLoop{Warmup: o.Warmup, Rounds: o.Rounds, RoundLen: o.RoundLen,
		CPU: func() time.Duration { return cpu }}
	var startErr error
	res.Rec = loop.Run(func(i int) Outcome {
		t0 := time.Now()
		c, err := sb.Start("paper", args...)
		if err != nil {
			startErr = err
			return Errored
		}
		rss := c.WatchPeakRSS()
		err = c.Wait(2 * time.Minute)
		o.Trace.Add(Span{Name: "paper " + args[0], Layer: "experiments", Start: t0, Dur: time.Since(t0)})
		cpu += c.ExitCPU()
		res.PeakRSSMB = append(res.PeakRSSMB, rss)
		if err != nil {
			return Errored
		}
		sum := sha256.Sum256(c.Stdout.Bytes())
		if hex.EncodeToString(sum[:]) != want {
			return Wrong
		}
		return Good
	})
	if startErr != nil {
		return nil, startErr
	}
	res.check("every regeneration's stdout sha256 is "+want[:8]+"…", res.Rec.Tally.Wrong == 0,
		"%d of %d outputs differed", res.Rec.Tally.Wrong, res.Rec.Tally.Sent)
	return res, nil
}
