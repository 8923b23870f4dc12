package locusd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/policy"
	"locusroute/internal/store"
	"locusroute/internal/wire"
)

// The serving path's golden digests: what TestServingGolden's two
// fixed-seed streams hash to. A change that moves either one changed an
// answer some client can see. Stream A (routes, mutations, evict,
// restart) and stream B (stream A plus committing routes) must each hash
// the same over every transport, at 1 and 4 shard loops, with and without
// the EDF scheduler and result cache: every loop of a circuit evaluates
// against its one serving array, so a commit is visible to the next
// request whichever loop serves it.
const (
	servingGoldenA = "c1ca07de7cb7f740f92eee37883a66789c2348bbbcef8bf2588e5a3a2b704f22"
	servingGoldenB = "eac0372e2a628957f832ce003f454e5d43e1ef881b4047c20873a515fdb4d753"
)

// goldenOp is one step of a golden stream.
type goldenOp struct {
	verb    string // route, mutate, upload, evict, check, restart
	circuit string
	wire    circuit.Wire
	commit  bool
	ops     []store.Op
}

// goldenCircuits are the two circuits the streams upload: bnrE and its
// 10× preset.
var goldenCircuits = sync.OnceValues(func() ([]*circuit.Circuit, error) {
	small, err := circuit.Generate(circuit.BnrELike(1))
	if err != nil {
		return nil, err
	}
	big, err := circuit.Generate(circuit.Scaled(circuit.BnrELike(1), 10))
	if err != nil {
		return nil, err
	}
	return []*circuit.Circuit{small, big}, nil
})

// goldenStream builds the fixed-seed sequential stream: ~2000 routes and
// mutations over both circuits with unsorted pins throughout, repeats the
// result cache can answer, refusals, one evict + re-upload and one
// restart, with array checkpoints between. commits makes some routes
// commit (stream B).
func goldenStream(circs []*circuit.Circuit, steps int, commits bool) []goldenOp {
	rng := rand.New(rand.NewSource(13))
	live := map[string][]int{} // wire ids the stream believes each circuit holds
	next := map[string]int{}
	byName := map[string]*circuit.Circuit{}
	var names []string
	reset := func(c *circuit.Circuit) {
		live[c.Name] = live[c.Name][:0]
		for _, w := range c.Wires {
			live[c.Name] = append(live[c.Name], w.ID)
			next[c.Name] = max(next[c.Name], w.ID+1)
		}
	}
	var stream []goldenOp
	for _, c := range circs {
		byName[c.Name] = c
		names = append(names, c.Name)
		reset(c)
		stream = append(stream, goldenOp{verb: "upload", circuit: c.Name})
	}
	check := goldenOp{verb: "check"}
	stream = append(stream, check)

	// pins draws n random in-grid pins; shuffle leaves a wire's own pins
	// unsorted.
	pins := func(g geom.Grid, n int) []geom.Point {
		ps := make([]geom.Point, n)
		for i := range ps {
			ps[i] = geom.Pt(rng.Intn(g.Grids), rng.Intn(g.Channels))
		}
		return ps
	}
	shuffle := func(ps []geom.Point) []geom.Point {
		ps = slices.Clone(ps)
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		return ps
	}
	var recent []goldenOp
	for step := 0; step < steps; step++ {
		switch step {
		case steps / 3:
			// Evict the small circuit, miss it, bring it back.
			small := circs[0]
			stream = append(stream,
				goldenOp{verb: "evict", circuit: small.Name},
				goldenOp{verb: "route", circuit: small.Name, wire: small.Wires[0]},
				goldenOp{verb: "mutate", circuit: small.Name, ops: []store.Op{{Kind: store.OpReroute, WireID: small.Wires[0].ID}}},
				goldenOp{verb: "evict", circuit: small.Name},
				goldenOp{verb: "upload", circuit: small.Name},
				check)
			reset(small)
			recent = recent[:0]
			continue
		case 2 * steps / 3:
			stream = append(stream, check, goldenOp{verb: "restart"}, check)
			continue
		}
		name := names[rng.Intn(len(names))]
		c := byName[name]
		ids := live[name]
		r := rng.Intn(100)
		switch {
		case r < 72 && len(ids) > 0:
			if len(recent) > 0 && rng.Intn(4) == 0 {
				op := recent[rng.Intn(len(recent))]
				stream = append(stream, op)
				continue
			}
			id := ids[rng.Intn(len(ids))]
			var w circuit.Wire
			if id < len(c.Wires) && c.Wires[id].ID == id {
				w = circuit.Wire{ID: id, Pins: shuffle(c.Wires[id].Pins)}
			} else {
				w = circuit.Wire{ID: id, Pins: pins(c.Grid, 2+rng.Intn(3))}
			}
			op := goldenOp{verb: "route", circuit: name, wire: w, commit: commits && rng.Intn(5) == 0}
			stream = append(stream, op)
			if recent = append(recent, op); len(recent) > 8 {
				recent = recent[1:]
			}
		case r < 86:
			stream = append(stream, goldenOp{verb: "route", circuit: name,
				wire: circuit.Wire{ID: 7, Pins: pins(c.Grid, 2+rng.Intn(4))}, commit: commits && rng.Intn(5) == 0})
		case r < 88:
			// Refusals: an out-of-grid pin, a one-pin wire, an unknown circuit.
			bad := goldenOp{verb: "route", circuit: name, wire: circuit.Wire{ID: 1, Pins: pins(c.Grid, 2)}}
			switch rng.Intn(3) {
			case 0:
				bad.wire.Pins[1] = geom.Pt(c.Grid.Grids+3, 0)
			case 1:
				bad.wire.Pins = bad.wire.Pins[:1]
			default:
				bad.circuit = "nope"
			}
			stream = append(stream, bad)
		default:
			n := 1 + rng.Intn(2)
			var ops []store.Op
			removed := map[int]bool{}
			valid := true
			for range n {
				switch k := rng.Intn(10); {
				case k < 3 || len(ids) < 4:
					id := next[name]
					next[name]++
					ops = append(ops, store.Op{Kind: store.OpAdd, WireID: id, Pins: pins(c.Grid, 2+rng.Intn(3))})
				case k < 5:
					id := ids[rng.Intn(len(ids))]
					if removed[id] {
						valid = false
					}
					removed[id] = true
					ops = append(ops, store.Op{Kind: store.OpRemove, WireID: id})
				case k < 9:
					id := ids[rng.Intn(len(ids))]
					if removed[id] {
						valid = false
					}
					var ps []geom.Point
					if rng.Intn(2) == 0 {
						ps = pins(c.Grid, 2+rng.Intn(3))
					}
					ops = append(ops, store.Op{Kind: store.OpReroute, WireID: id, Pins: ps})
				default:
					// A wire no circuit holds: the whole batch is refused.
					ops = append(ops, store.Op{Kind: store.OpRemove, WireID: 1 << 30})
					valid = false
				}
			}
			stream = append(stream, goldenOp{verb: "mutate", circuit: name, ops: ops})
			if valid {
				for _, op := range ops {
					switch op.Kind {
					case store.OpAdd:
						live[name] = append(live[name], op.WireID)
					case store.OpRemove:
						live[name] = slices.DeleteFunc(live[name], func(id int) bool { return id == op.WireID })
					}
				}
			}
			recent = recent[:0] // repeats within an epoch are what the cache can answer
		}
	}
	return append(stream, check)
}

// goldenClient drives one transport. Each method returns the line the
// answer contributes to the digest: the status (0 for success, else the
// HTTP code both transports map it to) and the answer's deterministic
// fields — never timings, shard, batch shape or the cached flag.
type goldenClient interface {
	route(name string, w circuit.Wire, commit bool) string
	mutate(name string, ops []store.Op) string
	upload(c *circuit.Circuit) string
	evict(name string) string
	close()
}

func routeLine(status int, cost int64, cells, pathCells int) string {
	if status != 0 {
		return fmt.Sprintf("route %d", status)
	}
	return fmt.Sprintf("route 0 %d %d %d", cost, cells, pathCells)
}

func adminLine(verb string, status int, epoch uint64, wires int) string {
	if status != 0 {
		return fmt.Sprintf("%s %d", verb, status)
	}
	return fmt.Sprintf("%s 0 %d %d", verb, epoch, wires)
}

func opLine(op string, wireID int, cost int64, pathCells, cells int) string {
	return fmt.Sprintf(" %s %d %d %d %d", op, wireID, cost, pathCells, cells)
}

// inprocClient calls the Server directly.
type inprocClient struct{ s *Server }

func (c inprocClient) status(err error) int {
	if err == nil {
		return 0
	}
	st, _ := c.s.classify(err)
	return st.HTTPStatus()
}

func (c inprocClient) route(name string, w circuit.Wire, commit bool) string {
	w.Pins = slices.Clone(w.Pins)
	resp, err := c.s.Route(context.Background(), RouteRequest{Circuit: name, Wire: w, Commit: commit})
	return routeLine(c.status(err), resp.Cost, resp.CellsExamined, resp.PathCells)
}

func (c inprocClient) mutate(name string, ops []store.Op) string {
	resp, err := c.s.Mutate(MutateRequest{Circuit: name, Ops: slices.Clone(ops)})
	if err != nil {
		return adminLine("mutate", c.status(err), 0, 0)
	}
	line := adminLine("mutate", 0, resp.Epoch, resp.Wires)
	for _, r := range resp.Results {
		line += opLine(r.Op, r.WireID, r.Cost, r.PathCells, r.CellsExamined)
	}
	return line
}

func (c inprocClient) upload(circ *circuit.Circuit) string {
	info, err := c.s.UploadCircuit(circ)
	return adminLine("upload", c.status(err), info.Epoch, info.Wires)
}

func (c inprocClient) evict(name string) string {
	return adminLine("evict", c.status(c.s.EvictCircuit(name)), 0, 0)
}

func (inprocClient) close() {}

// httpClient speaks /v1 JSON to the server's Handler through an
// httptest recorder: every byte of the JSON surface, none of a socket's.
type httpClient struct {
	t testing.TB
	h http.Handler
}

func jsonPins(ps []geom.Point) [][2]int {
	out := make([][2]int, len(ps))
	for i, p := range ps {
		out[i] = [2]int{p.X, p.Y}
	}
	return out
}

// do sends one request and decodes a 2xx body into doc; it returns the
// digest status.
func (c httpClient) do(method, path string, body, doc any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code/100 != 2 {
		return rec.Code
	}
	if err := json.Unmarshal(rec.Body.Bytes(), doc); err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	return 0
}

func (c httpClient) route(name string, w circuit.Wire, commit bool) string {
	var doc struct {
		Cost          int64 `json:"cost"`
		PathCells     int   `json:"path_cells"`
		CellsExamined int   `json:"cells_examined"`
	}
	body := struct {
		Circuit string   `json:"circuit"`
		Wire    int      `json:"wire"`
		Pins    [][2]int `json:"pins"`
		Commit  bool     `json:"commit"`
	}{name, w.ID, jsonPins(w.Pins), commit}
	st := c.do(http.MethodPost, "/v1/route", body, &doc)
	return routeLine(st, doc.Cost, doc.CellsExamined, doc.PathCells)
}

func (c httpClient) mutate(name string, ops []store.Op) string {
	type opBody struct {
		Op   string   `json:"op"`
		Wire int      `json:"wire"`
		Pins [][2]int `json:"pins,omitempty"`
	}
	body := struct {
		Circuit string   `json:"circuit"`
		Ops     []opBody `json:"ops"`
	}{Circuit: name}
	for _, op := range ops {
		body.Ops = append(body.Ops, opBody{op.Kind.String(), op.WireID, jsonPins(op.Pins)})
	}
	var doc struct {
		Epoch   uint64 `json:"epoch"`
		Wires   int    `json:"wires"`
		Results []struct {
			Op            string `json:"op"`
			Wire          int    `json:"wire"`
			Cost          int64  `json:"cost"`
			PathCells     int    `json:"path_cells"`
			CellsExamined int    `json:"cells_examined"`
		} `json:"results"`
	}
	st := c.do(http.MethodPost, "/v1/mutate", body, &doc)
	line := adminLine("mutate", st, doc.Epoch, doc.Wires)
	for _, r := range doc.Results {
		line += opLine(r.Op, r.Wire, r.Cost, r.PathCells, r.CellsExamined)
	}
	return line
}

func (c httpClient) upload(circ *circuit.Circuit) string {
	type wireBody struct {
		ID   int      `json:"id"`
		Pins [][2]int `json:"pins"`
	}
	body := struct {
		Channels int        `json:"channels"`
		Grids    int        `json:"grids"`
		Wires    []wireBody `json:"wires"`
	}{Channels: circ.Grid.Channels, Grids: circ.Grid.Grids}
	for _, w := range circ.Wires {
		body.Wires = append(body.Wires, wireBody{w.ID, jsonPins(w.Pins)})
	}
	var doc struct {
		Wires         int    `json:"wires"`
		MutationEpoch uint64 `json:"mutation_epoch"`
	}
	st := c.do(http.MethodPost, "/v1/circuits/"+circ.Name, body, &doc)
	return adminLine("upload", st, doc.MutationEpoch, doc.Wires)
}

func (c httpClient) evict(name string) string {
	var doc map[string]string
	return adminLine("evict", c.do(http.MethodDelete, "/v1/circuits/"+name, nil, &doc), 0, 0)
}

func (httpClient) close() {}

// tcpClient speaks the binary protocol over one connection.
type tcpClient struct {
	t    testing.TB
	tcp  *TCPServer
	conn *wire.Conn
	done chan error
}

func newTCPClient(t testing.TB, s *Server) tcpClient {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := tcpClient{t: t, tcp: NewTCPServer(s), done: make(chan error, 1)}
	go func() { c.done <- c.tcp.Serve(l) }()
	if c.conn, err = wire.Dial(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	return c
}

func wireStatus(st wire.Status) int {
	if st == wire.StatusOK {
		return 0
	}
	return st.HTTPStatus()
}

func (c tcpClient) route(name string, w circuit.Wire, commit bool) string {
	resp, err := c.conn.Do(&wire.Request{Circuit: name, WireID: w.ID, Pins: w.Pins, Commit: commit})
	if err != nil {
		c.t.Fatalf("route over tcp: %v", err)
	}
	return routeLine(wireStatus(resp.Status), resp.Cost, resp.CellsExamined, resp.PathCells)
}

func (c tcpClient) mutate(name string, ops []store.Op) string {
	resp, err := c.conn.DoMutate(&wire.Mutate{Circuit: name, Ops: store.ToWireOps(ops)})
	if err != nil {
		c.t.Fatalf("mutate over tcp: %v", err)
	}
	line := adminLine("mutate", wireStatus(resp.Status), resp.Epoch, resp.Wires)
	for _, r := range resp.Results {
		line += opLine(store.OpKind(r.Op).String(), r.WireID, r.Cost, r.PathCells, r.CellsExamined)
	}
	return line
}

func (c tcpClient) upload(circ *circuit.Circuit) string {
	u := &wire.Upload{Name: circ.Name, Channels: circ.Grid.Channels, Grids: circ.Grid.Grids}
	for _, w := range circ.Wires {
		u.Wires = append(u.Wires, wire.UploadWire{ID: w.ID, Pins: w.Pins})
	}
	resp, err := c.conn.DoUpload(u)
	if err != nil {
		c.t.Fatalf("upload over tcp: %v", err)
	}
	return adminLine("upload", wireStatus(resp.Status), resp.Epoch, resp.Wires)
}

func (c tcpClient) evict(name string) string {
	resp, err := c.conn.DoEvict(&wire.Evict{Circuit: name})
	if err != nil {
		c.t.Fatalf("evict over tcp: %v", err)
	}
	return adminLine("evict", wireStatus(resp.Status), 0, 0)
}

func (c tcpClient) close() {
	c.conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.tcp.Shutdown(ctx); err != nil {
		c.t.Errorf("Shutdown: %v", err)
	}
	if err := <-c.done; !errors.Is(err, ErrTCPServerClosed) {
		c.t.Errorf("Serve returned %v", err)
	}
}

var goldenTransports = map[string]func(testing.TB, *Server) goldenClient{
	"inproc": func(_ testing.TB, s *Server) goldenClient { return inprocClient{s} },
	"http":   func(t testing.TB, s *Server) goldenClient { return httpClient{t, s.Handler()} },
	"tcp":    func(t testing.TB, s *Server) goldenClient { return newTCPClient(t, s) },
}

// runGolden drives stream over one transport against a fresh
// store-backed server and returns the stream's hex digest; with a
// non-nil log it also writes every digest line there.
func runGolden(t testing.TB, stream []goldenOp, circs []*circuit.Circuit, cfg Config, transport string, log io.Writer) string {
	dir := t.TempDir()
	var s *Server
	var st *store.Store
	var cl goldenClient
	open := func() {
		var err error
		if st, err = store.Open(store.Config{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
		if s, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		cl = goldenTransports[transport](t, s)
	}
	shut := func() {
		cl.close()
		s.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	byName := map[string]*circuit.Circuit{}
	for _, c := range circs {
		byName[c.Name] = c
	}
	h := sha256.New()
	emit := func(h hash.Hash, line string) {
		io.WriteString(h, line+"\n")
		if log != nil {
			io.WriteString(log, line+"\n")
		}
	}
	open()
	for _, op := range stream {
		switch op.verb {
		case "route":
			emit(h, cl.route(op.circuit, op.wire, op.commit))
		case "mutate":
			emit(h, cl.mutate(op.circuit, op.ops))
		case "upload":
			emit(h, cl.upload(byName[op.circuit]))
		case "evict":
			emit(h, cl.evict(op.circuit))
		case "check":
			for _, c := range circs {
				if info, ok := st.Get(c.Name); ok {
					emit(h, fmt.Sprintf("check %s %s %d", c.Name, info.ArrayHash, info.Epoch))
				} else {
					emit(h, "check "+c.Name+" absent")
				}
			}
		case "restart":
			shut()
			open()
		}
	}
	shut()
	return hex.EncodeToString(h.Sum(nil))
}

// TestServingGolden pins what the serving path answers, the way the
// paper tables' sha256 pins the simulators: two fixed-seed sequential
// streams (see goldenStream) driven in-process, over /v1 JSON and over
// the binary protocol, each hashed into one digest that must equal the
// pinned constant in every configuration it is defined for. A refactor
// of the request path, the transports or the lifecycle that holds both
// digests changed nothing a client can observe in those answers.
func TestServingGolden(t *testing.T) {
	circs, err := goldenCircuits()
	if err != nil {
		t.Fatal(err)
	}
	const steps = 2000
	policies := map[string]policy.Config{
		"none":      {},
		"edf+cache": {EDF: true, CacheEntries: 256},
	}
	for _, stream := range []struct {
		name   string
		ops    []goldenOp
		shards []int
		want   string
	}{
		{"A", goldenStream(circs, steps, false), []int{1, 4}, servingGoldenA},
		{"B", goldenStream(circs, steps, true), []int{1, 4}, servingGoldenB},
	} {
		for _, transport := range []string{"inproc", "http", "tcp"} {
			for _, shards := range stream.shards {
				for pname, pol := range policies {
					name := fmt.Sprintf("%s/%s/shards=%d/%s", stream.name, transport, shards, pname)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						got := runGolden(t, stream.ops, circs, Config{Shards: shards, Policy: pol}, transport, nil)
						if got != stream.want {
							t.Errorf("stream %s digest %s, want %s", stream.name, got, stream.want)
						}
					})
				}
			}
		}
	}
}
