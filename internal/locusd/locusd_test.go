package locusd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/obs"
	"locusroute/internal/par"
	"locusroute/internal/policy"
	"locusroute/pkg/locusroute"
)

// testCircuit generates the small circuit the service tests route
// against.
func testCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Generate(circuit.GenParams{
		Name: "svc", Channels: 6, Grids: 80, Wires: 40, MeanSpan: 10, LongFrac: 0.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newServer stands up a Server over the test circuit and registers
// cleanup.
func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg, testCircuit(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestChainExposesPolicy: a server without policy exposes the nil chain
// (no elements), and one with policy exposes its elements in pipeline
// order, as cmd/locusd logs them.
func TestChainExposesPolicy(t *testing.T) {
	if els := newServer(t, Config{}).Chain().Elements(); els != nil {
		t.Errorf("no policy: chain elements %v, want none", els)
	}
	s := newServer(t, Config{Policy: policy.Config{CacheEntries: 8, EDF: true}})
	var names []string
	for _, el := range s.Chain().Elements() {
		names = append(names, el.Name())
	}
	if !slices.Equal(names, []string{"cache", "edf"}) {
		t.Errorf("chain elements %v, want [cache edf]", names)
	}
}

// park occupies every slot of pool until the returned release is called
// (the test's cleanup calls it too, ahead of the server's Close): shard
// loops still wake for arrivals but cannot evaluate, so admitted requests
// stay queued and in flight for exactly as long as the test wants.
func park(t testing.TB, pool *par.Pool) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var held sync.WaitGroup
	for range pool.Workers() {
		held.Add(1)
		go pool.Run(func() { held.Done(); <-gate })
	}
	held.Wait()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// newParkedServer is newServer with every evaluation slot already held
// (cfg.Pool, or a one-slot pool when the test brings none).
func newParkedServer(t testing.TB, cfg Config) (s *Server, release func()) {
	t.Helper()
	if cfg.Pool == nil {
		cfg.Pool = par.New(1)
	}
	s = newServer(t, cfg)
	return s, park(t, cfg.Pool)
}

// counters reads the server's counters and gauges by their /debug/vars
// keys.
func counters(s *Server) map[string]int64 {
	out := map[string]int64{}
	for _, m := range s.metricsList() {
		if m.key != "" {
			out[m.key] = m.v
		}
	}
	return out
}

// metricOf reads one entry of the server's metrics list by its
// /debug/vars key.
func metricOf(t testing.TB, s *Server, key string) metric {
	t.Helper()
	for _, m := range s.metricsList() {
		if m.key == key {
			return m
		}
	}
	t.Fatalf("no metric %q", key)
	return metric{}
}

// waitFor polls until cond holds; what names the condition for the
// failure message.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitInFlight waits until exactly n requests hold admission slots.
func waitInFlight(t testing.TB, s *Server, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d requests in flight", n), func() bool { return s.InFlight() == n })
}

// waitQueued waits until exactly n requests sit in the test circuit's
// queue.
func waitQueued(t testing.TB, s *Server, n int) {
	t.Helper()
	q := s.circuits["svc"].queue
	waitFor(t, fmt.Sprintf("%d requests queued", n), func() bool { return q.Len() == n })
}

// postRoute fires one /v1/route request and decodes the response.
func postRoute(t testing.TB, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/route", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("status %d: undecodable body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, doc
}

// TestRouteBasic covers the happy path: route one wire, get its cost and
// serving shard back.
func TestRouteBasic(t *testing.T) {
	s := newServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, doc := postRoute(t, ts, `{"circuit":"svc","wire":7,"pins":[[2,1],[40,4]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, doc)
	}
	if doc["wire"] != float64(7) || doc["circuit"] != "svc" {
		t.Errorf("response echoes wrong identity: %v", doc)
	}
	if doc["cost"] == nil || doc["path_cells"].(float64) <= 0 {
		t.Errorf("degenerate evaluation: %v", doc)
	}
}

// TestValidationErrors pins the HTTP codes of the failure modes: unknown
// circuit 404, out-of-grid pin 400 (rejected, not clamped), single pin
// 400, bad JSON 400.
func TestValidationErrors(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		code       int
		errPart    string
	}{
		{"unknown circuit", `{"circuit":"nope","pins":[[0,0],[1,1]]}`, http.StatusNotFound, "unknown circuit"},
		{"outside grid", `{"circuit":"svc","wire":3,"pins":[[2,1],[999,42]]}`, http.StatusBadRequest, "not clamped"},
		{"single pin", `{"circuit":"svc","pins":[[2,1]]}`, http.StatusBadRequest, "need at least 2"},
		{"bad json", `{"circuit":`, http.StatusBadRequest, "bad request body"},
	}
	for _, cse := range cases {
		code, doc := postRoute(t, ts, cse.body)
		if code != cse.code {
			t.Errorf("%s: status %d, want %d (%v)", cse.name, code, cse.code, doc)
		}
		if msg, _ := doc["error"].(string); !strings.Contains(msg, cse.errPart) {
			t.Errorf("%s: error %q, want substring %q", cse.name, msg, cse.errPart)
		}
	}
	if counters(s)["rejected"] == 0 {
		t.Error("validation failures not counted")
	}
}

// TestOversizedBodyRefused pins the HTTP transport's body bound: a
// document over wire.MaxFrame — the binary transport's frame limit — is
// answered 413 with the usual error body on every endpoint that decodes
// one, before it is read to the end, and the server keeps serving.
func TestOversizedBodyRefused(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := `{"circuit":"` + strings.Repeat("a", 2<<20) + `"}`
	for _, path := range []string{"/v1/route", "/v1/mutate", "/v1/circuits/big"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var doc errorBody
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(doc.Error, "request body over") {
			t.Errorf("%s: status %d, body %+v (%v), want 413 with an error body", path, resp.StatusCode, doc, err)
		}
		if code, doc := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`); code != http.StatusOK {
			t.Errorf("after %s: normal request got %d (%v)", path, code, doc)
		}
	}
}

// TestBusyShardBatches checks that requests queueing up while a shard
// cannot evaluate are taken as one batch once it can: with a single
// shard and its only pool slot held, n arrivals are popped together on
// release — every response reports batch_size n, and batch_index follows
// arrival order.
func TestBusyShardBatches(t *testing.T) {
	s, release := newParkedServer(t, Config{Shards: 1, MaxBatch: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	var maxBatch int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, doc := postRoute(t, ts, fmt.Sprintf(`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]]}`, i))
			if code != http.StatusOK {
				t.Errorf("wire %d: status %d", i, code)
				return
			}
			if idx := int(doc["batch_index"].(float64)); idx != i {
				t.Errorf("arrival %d evaluated at batch_index %d, want arrival order", i, idx)
			}
			bs := int64(doc["batch_size"].(float64))
			for {
				cur := atomic.LoadInt64(&maxBatch)
				if bs <= cur || atomic.CompareAndSwapInt64(&maxBatch, cur, bs) {
					break
				}
			}
		}(i)
		// The next arrival starts only once this one is queued, so arrival
		// order is unambiguous.
		waitQueued(t, s, i+1)
	}
	release()
	wg.Wait()
	if maxBatch != n {
		t.Errorf("max batch size %d; the %d requests queued behind the busy shard should have formed one batch", maxBatch, n)
	}
	if got := metricOf(t, s, "batch_size").hist.Max; got != maxBatch {
		t.Errorf("histogram max batch %d != observed %d", got, maxBatch)
	}
}

// TestIdleShardNoWait pins the other half: nothing holds a lone arrival
// back. Sequential requests against a default Config each find their
// shard idle, so the median queue wait is scheduling noise, far below
// the 2 ms every request used to spend in a batch window.
func TestIdleShardNoWait(t *testing.T) {
	s := newServer(t, Config{})
	const n = 200
	waits := make([]int64, n)
	for i := range waits {
		resp, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(i)})
		if err != nil {
			t.Fatalf("Route %d: %v", i, err)
		}
		if resp.BatchSize != 1 {
			t.Errorf("Route %d: batch_size %d on an idle shard, want 1", i, resp.BatchSize)
		}
		waits[i] = resp.WaitMicros
	}
	slices.Sort(waits)
	if median := waits[n/2]; median >= 500 {
		t.Errorf("median wait_us %d over %d sequential requests, want < 500 (idle shards must not wait)", median, n)
	}
}

// TestDeadlineExpiry checks a request whose deadline lands while it is
// still queued fails with 504 and is counted as expired.
func TestDeadlineExpiry(t *testing.T) {
	s, _ := newParkedServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, doc := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":30}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", code, doc)
	}
	if counters(s)["expired"] == 0 {
		t.Error("expired request not counted")
	}
}

// TestBackpressure sheds load with 429 + Retry-After when the admission
// gate is full: one slot, occupied by a request parked behind a busy
// shard.
func TestBackpressure(t *testing.T) {
	s, release := newParkedServer(t, Config{Shards: 1, MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int)
	go func() {
		code, _ := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)
		first <- code
	}()
	// Wait until the first request holds the gate slot.
	waitInFlight(t, s, 1)
	resp, err := ts.Client().Post(ts.URL+"/v1/route", "application/json",
		strings.NewReader(`{"circuit":"svc","pins":[[3,2],[30,5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	release()
	if code := <-first; code != http.StatusOK {
		t.Errorf("occupying request finished %d, want 200", code)
	}
	if counters(s)["shed"] == 0 {
		t.Error("shed request not counted")
	}
}

// TestGracefulDrain checks the drain contract: a request in flight when
// the drain begins completes with 200, a request after it is refused
// with 503, /healthz flips to 503, and Close returns.
func TestGracefulDrain(t *testing.T) {
	s, release := newParkedServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inFlight := make(chan int)
	go func() {
		code, _ := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)
		inFlight <- code
	}()
	waitInFlight(t, s, 1)

	s.BeginDrain()
	if code, doc := postRoute(t, ts, `{"circuit":"svc","pins":[[3,2],[30,5]]}`); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503 (%v)", code, doc)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz: status %d, want 503", resp.StatusCode)
	}

	release()
	if code := <-inFlight; code != http.StatusOK {
		t.Errorf("in-flight request during drain finished %d, want 200", code)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after drain")
	}
}

// TestCommitVisibleOnShard checks a committed path raises congestion for
// the next evaluation on the same (single) shard: same wire, higher or
// equal cost, strictly higher once the path cells carry the commit.
func TestCommitVisibleOnShard(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"circuit":"svc","pins":[[2,1],[40,4]],"commit":true}`
	_, doc1 := postRoute(t, ts, body)
	_, doc2 := postRoute(t, ts, body)
	c1, c2 := int64(doc1["cost"].(float64)), int64(doc2["cost"].(float64))
	if c2 <= c1 {
		t.Errorf("second routing of a committed wire cost %d, want > %d (commit must be visible)", c2, c1)
	}
	if counters(s)["committed"] != 2 {
		t.Errorf("committed count %d, want 2", counters(s)["committed"])
	}
}

// TestEndpoints covers /circuits, /metrics and /debug/vars shape.
func TestEndpoints(t *testing.T) {
	s := newServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)
	// A shard books its batch just after answering it.
	waitFor(t, "the first batch to be booked", func() bool { return counters(s)["batches"] == 1 })

	var cs circuitsDoc
	getJSON(t, ts, "/v1/circuits", &cs)
	if len(cs.Circuits) != 1 || cs.Circuits[0].Name != "svc" || cs.Circuits[0].Shards != 2 {
		t.Errorf("circuits doc %+v", cs)
	}
	if cs.Circuits[0].CircuitHeight <= 0 {
		t.Errorf("baseline quality missing: %+v", cs.Circuits[0])
	}

	var vars struct {
		Served, Capacity, Batches int64
		EvalUs                    int64             `json:"eval_us"`
		BatchSize                 *obs.HistogramDoc `json:"batch_size"`
	}
	getJSON(t, ts, "/debug/vars", &vars)
	if vars.Served != 1 || vars.Capacity == 0 || vars.BatchSize == nil {
		t.Errorf("vars doc %+v", vars)
	}
	// The shard loops' own account: evaluating that batch took time, and
	// a second request moves both counters.
	if vars.Batches != 1 || vars.EvalUs <= 0 {
		t.Errorf("after one request: batches %d eval_us %d, want 1 and > 0", vars.Batches, vars.EvalUs)
	}
	postRoute(t, ts, `{"circuit":"svc","pins":[[3,2],[30,5]]}`)
	waitFor(t, "the second batch to be booked", func() bool { return counters(s)["batches"] == 2 })
	if got := counters(s)["eval_us"]; got <= vars.EvalUs {
		t.Errorf("eval_us %d after two batches, want > %d", got, vars.EvalUs)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"locusd_requests_served_total 2",
		"locusd_batches_total 2",
		"# TYPE locusd_eval_us_total counter",
		"# TYPE locusd_batch_size histogram",
		`locusd_batch_size_bucket{le="+Inf"} 2`,
		"locusd_in_flight 0",
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// getJSON decodes one GET endpoint.
func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLoad is the -race smoke: at least 64 concurrent
// in-flight requests, every one completing 200, none dropped, then a
// clean drain. The gate is sized above the offered load so nothing
// sheds.
func TestConcurrentLoad(t *testing.T) {
	// Every pool slot starts held, parking the first wave of requests in
	// their shards' queues, so all 64 are provably in flight at once
	// before any completes; later waves run unhindered.
	s, release := newParkedServer(t, Config{
		Shards:      4,
		MaxBatch:    64,
		MaxInFlight: 1024,
		Pool:        par.New(4),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 128

	const workers = 64
	const perWorker = 4
	var ok, bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, doc := postRoute(t, ts, fmt.Sprintf(
					`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]],"commit":%v}`,
					w*perWorker+i, i%2 == 0))
				if code == http.StatusOK {
					ok.Add(1)
				} else {
					bad.Add(1)
					t.Errorf("worker %d: status %d (%v)", w, code, doc)
				}
			}
		}(w)
	}
	// The first request per worker cannot complete before the slots are
	// released, so in-flight must climb to all 64 workers.
	waitInFlight(t, s, workers)
	release()
	wg.Wait()
	if got := ok.Load(); got != workers*perWorker {
		t.Errorf("completed responses %d, want %d (dropped %d)", got, workers*perWorker, bad.Load())
	}
	if v := counters(s); v["served"] != workers*perWorker {
		t.Errorf("served counter %d, want %d", v["served"], workers*perWorker)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return under load drain")
	}
}

// TestPartitionedBaseline stands the service up on the partitioned
// backend: the baseline routing at startup uses intra-request
// parallelism, and serving behaves exactly as with the sequential
// baseline.
func TestPartitionedBaseline(t *testing.T) {
	s := newServer(t, Config{
		Backend:    locusroute.Partitioned,
		Partitions: 4,
		Shards:     1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, doc := postRoute(t, ts, `{"circuit":"svc","wire":7,"pins":[[2,1],[40,4]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, doc)
	}
	if doc["cost"] == nil || doc["path_cells"].(float64) <= 0 {
		t.Errorf("degenerate evaluation: %v", doc)
	}
}
