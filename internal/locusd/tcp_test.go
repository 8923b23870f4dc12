package locusd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/policy"
	"locusroute/internal/store"
	"locusroute/internal/wire"
	"locusroute/pkg/locusroute"
)

// startTCP stands up the binary transport over s on a loopback listener
// and registers cleanup; it returns the dial address and the TCPServer.
func startTCP(t testing.TB, s *Server) (string, *TCPServer) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcp := NewTCPServer(s)
	served := make(chan error, 1)
	go func() { served <- tcp.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := tcp.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, ErrTCPServerClosed) {
			t.Errorf("Serve returned %v, want ErrTCPServerClosed", err)
		}
	})
	return l.Addr().String(), tcp
}

// TestTCPServeBasic routes wires over one binary connection: sequential
// exchanges reuse the stream, and concurrent clients each get their own.
func TestTCPServeBasic(t *testing.T) {
	s := newServer(t, Config{Shards: 2})
	addr, _ := startTCP(t, s)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Do(&wire.Request{Circuit: "svc", WireID: 7 + i,
			Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}})
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("Do %d: status %v (%s)", i, resp.Status, resp.Message)
		}
		if resp.WireID != 7+i || resp.Cost <= 0 || resp.PathCells <= 0 {
			t.Errorf("Do %d: degenerate evaluation %+v", i, resp)
		}
	}

	// Concurrent connections exercise the accept loop and per-conn
	// goroutines under -race.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Errorf("Dial %d: %v", g, err)
				return
			}
			defer c.Close()
			for i := 0; i < 5; i++ {
				resp, err := c.Do(&wire.Request{Circuit: "svc", WireID: g*10 + i,
					Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}})
				if err != nil {
					t.Errorf("conn %d Do %d: %v", g, i, err)
					return
				}
				if resp.Status != wire.StatusOK {
					t.Errorf("conn %d Do %d: status %v", g, i, resp.Status)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTCPHTTPEquivalence pins the cross-transport contract: the same
// request through the binary listener and the JSON endpoint, against the
// same server, yields identical RouteResponse fields (shard, cost, path
// cells, batch shape, flags — everything but the timing-dependent
// wait_us).
func TestTCPHTTPEquivalence(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	addr, _ := startTCP(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bin, err := c.Do(&wire.Request{Circuit: "svc", WireID: 7,
		Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	if bin.Status != wire.StatusOK {
		t.Fatalf("bin status %v (%s)", bin.Status, bin.Message)
	}

	code, doc := postRoute(t, ts, `{"circuit":"svc","wire":7,"pins":[[2,1],[40,4]]}`)
	if code != http.StatusOK {
		t.Fatalf("http status %d: %v", code, doc)
	}
	for name, pair := range map[string][2]int64{
		"shard":          {int64(bin.Shard), int64(doc["shard"].(float64))},
		"wire":           {int64(bin.WireID), int64(doc["wire"].(float64))},
		"cost":           {bin.Cost, int64(doc["cost"].(float64))},
		"path_cells":     {int64(bin.PathCells), int64(doc["path_cells"].(float64))},
		"cells_examined": {int64(bin.CellsExamined), int64(doc["cells_examined"].(float64))},
		"batch_size":     {int64(bin.BatchSize), int64(doc["batch_size"].(float64))},
		"batch_index":    {int64(bin.BatchIndex), int64(doc["batch_index"].(float64))},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: bin %d != http %d", name, pair[0], pair[1])
		}
	}
	if bin.Committed != doc["committed"].(bool) || bin.Cached != doc["cached"].(bool) {
		t.Errorf("flag mismatch: bin %+v, http %v", bin, doc)
	}
}

// TestTCPErrorEquivalence pins the error vocabulary across transports:
// each failure mode's binary Status must map (via HTTPStatus) to exactly
// the code the JSON endpoint reports for the same request — first end to
// end for the validation failures, then for classify's whole table.
func TestTCPErrorEquivalence(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	addr, _ := startTCP(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cases := []struct {
		name string
		bin  wire.Request
		json string
		want wire.Status
	}{
		{"unknown circuit",
			wire.Request{Circuit: "nope", WireID: 1, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}},
			`{"circuit":"nope","wire":1,"pins":[[2,1],[40,4]]}`,
			wire.StatusUnknownCircuit},
		{"out-of-grid pin",
			wire.Request{Circuit: "svc", WireID: 1, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(5000, 4)}},
			`{"circuit":"svc","wire":1,"pins":[[2,1],[5000,4]]}`,
			wire.StatusBadRequest},
		{"single pin",
			wire.Request{Circuit: "svc", WireID: 1, Pins: []geom.Point{geom.Pt(2, 1)}},
			`{"circuit":"svc","wire":1,"pins":[[2,1]]}`,
			wire.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := c.Do(&tc.bin)
		if err != nil {
			t.Fatalf("%s: Do: %v", tc.name, err)
		}
		if resp.Status != tc.want {
			t.Errorf("%s: bin status %v, want %v", tc.name, resp.Status, tc.want)
		}
		if resp.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		code, _ := postRoute(t, ts, tc.json)
		if got := resp.Status.HTTPStatus(); got != code {
			t.Errorf("%s: bin HTTPStatus %d != json code %d", tc.name, got, code)
		}
	}

	// Every error classify knows, fed to the one renderer directly: one
	// status, one HTTP code, and the same Retry-After and text on the HTTP
	// answer and in what the frames carry.
	backlog := s.RetryAfterSeconds()
	for _, tc := range []struct {
		name       string
		err        error
		want       wire.Status
		http       int
		retryAfter int
	}{
		{"shed", ErrShed, wire.StatusShed, 429, backlog},
		{"evicted", fmt.Errorf("%w (slack lost)", policy.ErrEvicted), wire.StatusShed, 429, backlog},
		{"rate-limited typed", &policy.RateLimitedError{Client: "c", RetryAfter: 1500 * time.Millisecond}, wire.StatusRateLimited, 429, 2},
		{"rate-limited bare", policy.ErrRateLimited, wire.StatusRateLimited, 429, 0},
		{"breaker-open typed", &policy.BreakerOpenError{RetryAfter: 10 * time.Millisecond}, wire.StatusBreakerOpen, 503, 1},
		{"breaker-open bare", policy.ErrBreakerOpen, wire.StatusBreakerOpen, 503, 0},
		{"draining", ErrDraining, wire.StatusDraining, 503, 0},
		{"deadline", ErrDeadline, wire.StatusDeadline, 504, 0},
		{"infeasible", policy.ErrDeadlineInfeasible, wire.StatusInfeasible, 504, 0},
		{"unknown circuit (serving)", fmt.Errorf("%w %q", ErrUnknownCircuit, "x"), wire.StatusUnknownCircuit, 404, 0},
		{"unknown circuit (store)", store.ErrUnknown, wire.StatusUnknownCircuit, 404, 0},
		{"exists", fmt.Errorf("%w: %q", ErrCircuitExists, "x"), wire.StatusConflict, 409, 0},
		{"immutable", ErrImmutable, wire.StatusConflict, 409, 0},
		{"store-full", store.ErrStoreFull, wire.StatusStoreFull, 507, 0},
		{"bad-op", store.ErrBadOp, wire.StatusBadRequest, 400, 0},
		{"outside-grid", &locusroute.OutsideGridError{WireID: 1, Channels: 6, Grids: 80}, wire.StatusBadRequest, 400, 0},
		{"unknown error", errors.New("anything else"), wire.StatusBadRequest, 400, 0},
	} {
		status, retryAfter := s.classify(tc.err)
		if status != tc.want || status.HTTPStatus() != tc.http || retryAfter != tc.retryAfter {
			t.Errorf("%s: classify = (%v [http %d], %d), want (%v [http %d], %d)",
				tc.name, status, status.HTTPStatus(), retryAfter, tc.want, tc.http, tc.retryAfter)
		}
		rec := httptest.NewRecorder()
		s.reply(rec, http.StatusOK, nil, tc.err, "")
		header := ""
		if tc.retryAfter > 0 {
			header = strconv.Itoa(tc.retryAfter)
		}
		if rec.Code != tc.http || rec.Header().Get("Retry-After") != header {
			t.Errorf("%s: http rendered %d Retry-After %q, want %d %q",
				tc.name, rec.Code, rec.Header().Get("Retry-After"), tc.http, header)
		}
		if rf := s.refuse(tc.err); rf.status != tc.want || rf.code != tc.http || rf.retryAfter != tc.retryAfter || rf.msg != tc.err.Error() {
			t.Errorf("%s: refusal %+v", tc.name, rf)
		}
	}
}

// TestRefusalsCounted pins the counters of the two refusals that used to
// finish their span and bump nothing: an unknown-circuit 404 is one
// rejected, a request after BeginDrain is one denied — on either
// transport, as /v1/metrics reports them.
func TestRefusalsCounted(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	addr, _ := startTCP(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	metric := func(name string) int {
		t.Helper()
		_, _, text := doReq(t, ts, http.MethodGet, "/v1/metrics", "")
		for _, line := range strings.Split(string(text), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("metric line %q: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("/v1/metrics has no %s", name)
		return 0
	}
	overHTTP := func(circuit string, want int) {
		t.Helper()
		if code, doc := postRoute(t, ts, `{"circuit":"`+circuit+`","pins":[[2,1],[40,4]]}`); code != want {
			t.Fatalf("http %s: status %d, want %d (%v)", circuit, code, want, doc)
		}
	}
	overTCP := func(circuit string, want wire.Status) {
		t.Helper()
		resp, err := c.Do(&wire.Request{Circuit: circuit, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}})
		if err != nil || resp.Status != want {
			t.Fatalf("bin %s: status %v err %v, want %v", circuit, resp, err, want)
		}
	}

	movesByOne := func(name string, refuse func()) {
		t.Helper()
		base := metric(name)
		refuse()
		if got := metric(name) - base; got != 1 {
			t.Errorf("%s moved by %d over one refusal, want 1", name, got)
		}
	}
	const rejected, denied = "locusd_requests_rejected_total", "locusd_requests_denied_total"
	movesByOne(rejected, func() { overHTTP("nope", http.StatusNotFound) })
	movesByOne(rejected, func() { overTCP("nope", wire.StatusUnknownCircuit) })
	// A request that does not decode is refused and counted the same way.
	movesByOne(rejected, func() {
		if code, doc := postRoute(t, ts, `{"circuit":"svc","pins":"nope"}`); code != http.StatusBadRequest {
			t.Fatalf("http malformed: status %d, want 400 (%v)", code, doc)
		}
	})
	movesByOne(rejected, func() {
		frame, err := wire.AppendRequestFrame(nil, &wire.Request{Circuit: "svc", Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}})
		if err != nil {
			t.Fatal(err)
		}
		frame[6] = 0x80 // the flags byte: an unknown flag
		if resp := rawExchange(t, addr, frame); resp.Status != wire.StatusBadRequest {
			t.Fatalf("bin malformed: %+v, want StatusBadRequest", resp)
		}
	})
	s.BeginDrain()
	movesByOne(denied, func() { overHTTP("svc", http.StatusServiceUnavailable) })
	movesByOne(denied, func() { overTCP("svc", wire.StatusDraining) })
}

// rawExchange writes one pre-built frame on a fresh connection and
// decodes the route response it gets back.
func rawExchange(t testing.TB, addr string, frame []byte) *wire.Response {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return resp
}

// TestLongErrorMessageKeepsConn pins the error-message bound: the
// unknown-circuit error lists every served name, and client-chosen names
// can make it longer than a binary frame's message field holds. The
// message is cut at wire.MaxMessage (on a UTF-8 boundary) instead of the
// connection being dropped, and HTTP carries the identical text.
func TestLongErrorMessageKeepsConn(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	addr, _ := startTCP(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := range 18 {
		name := fmt.Sprintf("%03d%s", i, strings.Repeat("é", 120))
		c := &circuit.Circuit{Name: name, Grid: geom.Grid{Channels: 2, Grids: 10},
			Wires: []circuit.Wire{{ID: 0, Pins: []geom.Point{geom.Pt(1, 0), geom.Pt(8, 1)}}}}
		if _, err := s.UploadCircuit(c); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pins := []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}
	resp, err := c.Do(&wire.Request{Circuit: "nope", Pins: pins})
	if err != nil || resp.Status != wire.StatusUnknownCircuit {
		t.Fatalf("route to an unknown circuit: %+v, %v — want StatusUnknownCircuit", resp, err)
	}
	if len(resp.Message) > wire.MaxMessage || !utf8.ValidString(resp.Message) || !strings.HasPrefix(resp.Message, "locusd: unknown circuit") {
		t.Errorf("route message: %d bytes, valid UTF-8 %v, %.40q…", len(resp.Message), utf8.ValidString(resp.Message), resp.Message)
	}
	aresp, err := c.DoMutate(&wire.Mutate{Circuit: "nope", Ops: []wire.MutateOp{{Op: wire.OpReroute, WireID: 0}}})
	if err != nil || aresp.Status != wire.StatusUnknownCircuit {
		t.Fatalf("mutate of an unknown circuit: %+v, %v — want StatusUnknownCircuit", aresp, err)
	}
	if aresp.Message != resp.Message {
		t.Errorf("mutate and route carry different messages:\n%.60q\n%.60q", aresp.Message, resp.Message)
	}
	if code, doc := postRoute(t, ts, `{"circuit":"nope","pins":[[2,1],[40,4]]}`); code != http.StatusNotFound || doc["error"] != resp.Message {
		t.Errorf("http: status %d, error %d bytes; want 404 and the binary message", code, len(fmt.Sprint(doc["error"])))
	}
	if resp, err := c.Do(&wire.Request{Circuit: "svc", Pins: pins}); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("route on the same connection afterwards: %+v, %v", resp, err)
	}
}

// TestTCPShedRetryAfterEquivalence saturates a one-slot gate and checks
// a shed binary frame carries the same RetryAfterSeconds the JSON
// endpoint puts in its Retry-After header — both derived from the same
// backlog estimate at the same queue depth.
func TestTCPShedRetryAfterEquivalence(t *testing.T) {
	s, release := newParkedServer(t, Config{
		Shards:      1,
		MaxBatch:    4,
		MaxInFlight: 1,
	})
	// A measured 2.5s per evaluation lifts the estimate off its floor, so
	// the equality below compares a derived value, not two constants.
	seedServiceTime(s, 2500*time.Millisecond, 1)
	addr, _ := startTCP(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park one request behind the busy shard to hold the only gate slot.
	hold := make(chan error, 1)
	go func() {
		_, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(1)})
		hold <- err
	}()
	waitInFlight(t, s, 1)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bin, err := c.Do(&wire.Request{Circuit: "svc", WireID: 9,
		Pins: []geom.Point{geom.Pt(3, 2), geom.Pt(30, 5)}})
	if err != nil {
		t.Fatal(err)
	}
	if bin.Status != wire.StatusShed {
		t.Fatalf("bin status %v (%s), want StatusShed", bin.Status, bin.Message)
	}
	if bin.RetryAfterSeconds != 3 {
		t.Errorf("shed frame RetryAfterSeconds = %d, want 3 (one request at 2.5s, rounded up)", bin.RetryAfterSeconds)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/route", "application/json",
		strings.NewReader(`{"circuit":"svc","wire":9,"pins":[[3,2],[30,5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("http status %d, want 429", resp.StatusCode)
	}
	hdr, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After header %q: %v", resp.Header.Get("Retry-After"), err)
	}
	if hdr != bin.RetryAfterSeconds {
		t.Errorf("Retry-After: http %d != bin %d", hdr, bin.RetryAfterSeconds)
	}
	if got := bin.Status.HTTPStatus(); got != resp.StatusCode {
		t.Errorf("bin HTTPStatus %d != http %d", got, resp.StatusCode)
	}

	release()
	if err := <-hold; err != nil {
		t.Fatalf("held request: %v", err)
	}
}

// TestDeadlineRangeRejected pins the deadline_ms domain on both
// transports: a value whose conversion to a time.Duration would wrap
// (negative for the first, to zero for the second — an instant 504 for a
// caller who asked for a very long deadline) is malformed, rejected and
// counted so, never clamped; the largest representable one is served.
func TestDeadlineRangeRejected(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	addr, _ := startTCP(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, tc := range []struct {
		millis int64
		want   wire.Status
	}{
		{9300000000000, wire.StatusBadRequest},
		{1 << 62, wire.StatusBadRequest},
		{maxDeadlineMillis + 1, wire.StatusBadRequest},
		{maxDeadlineMillis, wire.StatusOK},
	} {
		rejected := counters(s)["rejected"]
		code, doc := postRoute(t, ts, fmt.Sprintf(`{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":%d}`, tc.millis))
		if code != tc.want.HTTPStatus() {
			t.Errorf("http deadline_ms %d: status %d, want %d (%v)", tc.millis, code, tc.want.HTTPStatus(), doc)
		}
		resp, err := c.Do(&wire.Request{Circuit: "svc", DeadlineMillis: tc.millis,
			Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}})
		if err != nil {
			t.Fatalf("bin deadline_ms %d: %v", tc.millis, err)
		}
		if resp.Status != tc.want {
			t.Errorf("bin deadline_ms %d: status %v (%s), want %v", tc.millis, resp.Status, resp.Message, tc.want)
		}
		if tc.want == wire.StatusBadRequest {
			if msg, _ := doc["error"].(string); !strings.Contains(msg, fmt.Sprintf("deadline_ms %d exceeds", tc.millis)) || resp.Message != msg {
				t.Errorf("deadline_ms %d: errors http %q, bin %q, want the same range error", tc.millis, msg, resp.Message)
			}
			if got := counters(s)["rejected"] - rejected; got != 2 {
				t.Errorf("deadline_ms %d: rejected moved by %d over two refusals, want 2", tc.millis, got)
			}
		}
	}
	if v := counters(s); v["expired"] != 0 || v["served"] != 2 {
		t.Errorf("expired %d served %d, want 0 and 2 (only the legal deadline is evaluated)", v["expired"], v["served"])
	}
}

// TestTCPBadPayloadKeepsConn checks a well-framed but undecodable
// payload is answered with StatusBadRequest and the stream survives —
// the binary analog of HTTP's per-request 400.
func TestTCPBadPayloadKeepsConn(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	addr, _ := startTCP(t, s)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	readResp := func() *wire.Response {
		t.Helper()
		payload, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("DecodeResponse: %v", err)
		}
		return resp
	}

	// A 3-byte garbage payload, framed correctly.
	if _, err := nc.Write([]byte{3, 0, 0, 0, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	resp := readResp()
	if resp.Status != wire.StatusBadRequest || resp.Message == "" {
		t.Fatalf("garbage payload: %+v, want StatusBadRequest with message", resp)
	}

	// The stream continues: a valid request still routes.
	frame, err := wire.AppendRequestFrame(nil, &wire.Request{Circuit: "svc", WireID: 1,
		Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(); resp.Status != wire.StatusOK {
		t.Errorf("status after bad payload %v, want StatusOK", resp.Status)
	}
}
