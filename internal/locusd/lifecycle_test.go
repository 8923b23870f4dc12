package locusd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/par"
	"locusroute/internal/policy"
	"locusroute/internal/route"
	"locusroute/internal/store"
	"locusroute/internal/wire"
	"locusroute/pkg/locusroute"
)

// dynCircuit generates a small circuit for lifecycle tests.
func dynCircuit(t testing.TB, name string, seed int64) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Generate(circuit.GenParams{
		Name: name, Channels: 5, Grids: 60, Wires: 16, MeanSpan: 8, LongFrac: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// uploadDoc renders a circuit as the POST /v1/circuits/{name} body.
func uploadDoc(t testing.TB, c *circuit.Circuit) string {
	t.Helper()
	body := uploadBody{Channels: c.Grid.Channels, Grids: c.Grid.Grids}
	for _, w := range c.Wires {
		uw := uploadWire{ID: w.ID}
		for _, p := range w.Pins {
			uw.Pins = append(uw.Pins, [2]int{p.X, p.Y})
		}
		body.Wires = append(body.Wires, uw)
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// doReq fires one request and returns status, headers and the raw body.
func doReq(t testing.TB, ts *httptest.Server, method, path, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// TestV1OnlySurface pins the versioning contract now that the legacy
// aliases are gone: the API answers under /v1 only, the unversioned
// spellings are 404s, a wrong method is the mux's 405, and /v1 responses
// carry no deprecation headers.
func TestV1OnlySurface(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"circuit":"svc","wire":9,"pins":[[2,1],[40,4]]}`
	for _, ep := range []struct{ method, path, body string }{
		{http.MethodPost, "/route", body},
		{http.MethodGet, "/circuits", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/metrics", ""},
	} {
		if code, _, _ := doReq(t, ts, ep.method, ep.path, ep.body); code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404 (legacy alias still mounted)", ep.method, ep.path, code)
		}
		code, hdr, raw := doReq(t, ts, ep.method, "/v1"+ep.path, ep.body)
		if code != http.StatusOK {
			t.Errorf("%s /v1%s: status %d (%s)", ep.method, ep.path, code, raw)
		}
		if hdr.Get("Deprecation") != "" || hdr.Get("Link") != "" {
			t.Errorf("/v1%s response carries deprecation headers", ep.path)
		}
	}
	if code, _, _ := doReq(t, ts, http.MethodGet, "/v1/route", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/route: status %d, want 405", code)
	}
}

// TestHTTPLifecycle walks the whole dynamic lifecycle over JSON: upload,
// duplicate conflict, route, mutate (with its incremental results),
// store state on /v1/circuits, evict, and re-upload of the freed name.
func TestHTTPLifecycle(t *testing.T) {
	s := newServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dynCircuit(t, "dyn", 3)
	code, _, raw := doReq(t, ts, http.MethodPost, "/v1/circuits/dyn", uploadDoc(t, c))
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d (%s)", code, raw)
	}
	var created circuitDoc
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	if !created.Mutable || created.Wires != len(c.Wires) || created.ArraySHA256 == "" {
		t.Fatalf("upload doc %+v: want mutable, %d wires, an array hash", created, len(c.Wires))
	}

	// The lifecycle endpoints are /v1-only: no legacy spelling exists.
	if code, _, _ := doReq(t, ts, http.MethodPost, "/circuits/dyn", uploadDoc(t, c)); code != http.StatusNotFound {
		t.Errorf("legacy POST /circuits/dyn: status %d, want 404", code)
	}
	// Duplicate name: conflict.
	if code, _, raw := doReq(t, ts, http.MethodPost, "/v1/circuits/dyn", uploadDoc(t, c)); code != http.StatusConflict {
		t.Errorf("duplicate upload: status %d, want 409 (%s)", code, raw)
	}

	// The uploaded circuit serves immediately.
	if code, doc := postRoute(t, ts, `{"circuit":"dyn","wire":1,"pins":[[1,1],[20,2]]}`); code != http.StatusOK {
		t.Fatalf("route against upload: status %d (%v)", code, doc)
	}

	// One batch: add a wire, reroute an existing one.
	mutate := fmt.Sprintf(`{"circuit":"dyn","ops":[{"op":"add","wire":900,"pins":[[2,1],[30,3]]},{"op":"reroute","wire":%d}]}`, c.Wires[0].ID)
	code, _, raw = doReq(t, ts, http.MethodPost, "/v1/mutate", mutate)
	if code != http.StatusOK {
		t.Fatalf("mutate: status %d (%s)", code, raw)
	}
	var mres MutateResponse
	if err := json.Unmarshal(raw, &mres); err != nil {
		t.Fatal(err)
	}
	if mres.Epoch != 2 || mres.Wires != len(c.Wires)+1 || len(mres.Results) != 2 {
		t.Fatalf("mutate response %+v: want epoch 2, %d wires, 2 results", mres, len(c.Wires)+1)
	}
	if r := mres.Results[0]; r.Op != "add" || r.WireID != 900 || r.PathCells <= 0 {
		t.Errorf("add result %+v: want a routed path for wire 900", r)
	}
	if r := mres.Results[1]; r.Op != "reroute" || r.PathCells <= 0 {
		t.Errorf("reroute result %+v: want a routed path", r)
	}

	// /v1/circuits reflects the mutation: epoch, wire count, new hash.
	_, _, raw = doReq(t, ts, http.MethodGet, "/v1/circuits", "")
	var cdoc circuitsDoc
	if err := json.Unmarshal(raw, &cdoc); err != nil {
		t.Fatal(err)
	}
	var dyn *circuitDoc
	for i := range cdoc.Circuits {
		if cdoc.Circuits[i].Name == "dyn" {
			dyn = &cdoc.Circuits[i]
		}
	}
	if dyn == nil {
		t.Fatalf("/v1/circuits lost the upload: %s", raw)
	}
	if dyn.MutationEpoch != 2 || dyn.Wires != len(c.Wires)+1 {
		t.Errorf("post-mutation doc %+v: want mutation_epoch 2, %d wires", dyn, len(c.Wires)+1)
	}
	if dyn.ArraySHA256 == created.ArraySHA256 {
		t.Error("mutation left the canonical array hash unchanged")
	}

	// Bad batches: unknown op spelled out, unknown circuit, invalid op.
	if code, _, _ := doReq(t, ts, http.MethodPost, "/v1/mutate", `{"circuit":"dyn","ops":[{"op":"warp","wire":1}]}`); code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", code)
	}
	if code, _, _ := doReq(t, ts, http.MethodPost, "/v1/mutate", `{"circuit":"nope","ops":[{"op":"reroute","wire":1}]}`); code != http.StatusNotFound {
		t.Errorf("unknown circuit: status %d, want 404", code)
	}
	if code, _, _ := doReq(t, ts, http.MethodPost, "/v1/mutate", `{"circuit":"dyn","ops":[{"op":"remove","wire":424242}]}`); code != http.StatusBadRequest {
		t.Errorf("remove of unknown wire: status %d, want 400", code)
	}

	// Evict: gone from serving, name free for re-upload.
	if code, _, raw := doReq(t, ts, http.MethodDelete, "/v1/circuits/dyn", ""); code != http.StatusOK {
		t.Fatalf("evict: status %d (%s)", code, raw)
	}
	if code, _ := postRoute(t, ts, `{"circuit":"dyn","wire":1,"pins":[[1,1],[20,2]]}`); code != http.StatusNotFound {
		t.Errorf("route after evict: status %d, want 404", code)
	}
	if code, _, _ := doReq(t, ts, http.MethodDelete, "/v1/circuits/dyn", ""); code != http.StatusNotFound {
		t.Errorf("double evict: status %d, want 404", code)
	}
	if code, _, raw := doReq(t, ts, http.MethodPost, "/v1/circuits/dyn", uploadDoc(t, c)); code != http.StatusCreated {
		t.Errorf("re-upload of evicted name: status %d (%s)", code, raw)
	}

	v := counters(s)
	if v["uploads"] != 2 || v["evictions"] != 1 || v["mutations"] != 2 {
		t.Errorf("lifecycle counters uploads=%d evictions=%d mutations=%d, want 2/1/2",
			v["uploads"], v["evictions"], v["mutations"])
	}
}

// TestImmutableStartupCircuit pins the mutability boundary: a startup
// circuit routed through a non-sequential backend has no store-held
// paths, so mutation and eviction are conflicts — while runtime uploads
// on the same server remain fully mutable.
func TestImmutableStartupCircuit(t *testing.T) {
	s, err := New(Config{Backend: locusroute.Partitioned, Shards: 1}, testCircuit(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, raw := doReq(t, ts, http.MethodPost, "/v1/mutate", `{"circuit":"svc","ops":[{"op":"reroute","wire":0}]}`); code != http.StatusConflict {
		t.Errorf("mutate immutable: status %d, want 409 (%s)", code, raw)
	}
	if code, _, _ := doReq(t, ts, http.MethodDelete, "/v1/circuits/svc", ""); code != http.StatusConflict {
		t.Errorf("evict immutable: status %d, want 409", code)
	}
	if code, _, raw := doReq(t, ts, http.MethodPost, "/v1/circuits/up", uploadDoc(t, dynCircuit(t, "up", 5))); code != http.StatusCreated {
		t.Fatalf("upload on immutable-baseline server: status %d (%s)", code, raw)
	}
	_, _, raw := doReq(t, ts, http.MethodGet, "/v1/circuits", "")
	var cdoc circuitsDoc
	if err := json.Unmarshal(raw, &cdoc); err != nil {
		t.Fatal(err)
	}
	mutable := map[string]bool{}
	for _, d := range cdoc.Circuits {
		mutable[d.Name] = d.Mutable
	}
	if mutable["svc"] || !mutable["up"] {
		t.Errorf("mutability flags %v: want svc immutable, up mutable", mutable)
	}
}

// wireUpload renders a circuit as its binary upload frame struct.
func wireUpload(c *circuit.Circuit) *wire.Upload {
	u := &wire.Upload{Name: c.Name, Channels: c.Grid.Channels, Grids: c.Grid.Grids}
	for _, w := range c.Wires {
		u.Wires = append(u.Wires, wire.UploadWire{ID: w.ID, Pins: append([]geom.Point(nil), w.Pins...)})
	}
	return u
}

// TestTCPLifecycle drives upload, mutate and evict over the binary
// protocol, interleaved with route frames on the same connection, and
// checks the result is visible over HTTP — one lifecycle, two wire
// formats.
func TestTCPLifecycle(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	addr, _ := startTCP(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	conn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	c := dynCircuit(t, "tdyn", 7)
	aresp, err := conn.DoUpload(wireUpload(c))
	if err != nil {
		t.Fatal(err)
	}
	if aresp.Status != wire.StatusOK || aresp.Wires != len(c.Wires) {
		t.Fatalf("upload response %+v: want OK with %d wires", aresp, len(c.Wires))
	}
	if aresp, err = conn.DoUpload(wireUpload(c)); err != nil || aresp.Status != wire.StatusConflict {
		t.Fatalf("duplicate upload: %+v, %v — want StatusConflict", aresp, err)
	}

	// Route frames interleave with lifecycle frames on one stream.
	rresp, err := conn.Do(&wire.Request{Circuit: "tdyn", WireID: 1,
		Pins: []geom.Point{geom.Pt(1, 1), geom.Pt(20, 2)}})
	if err != nil || rresp.Status != wire.StatusOK {
		t.Fatalf("route after upload: %+v, %v", rresp, err)
	}

	aresp, err = conn.DoMutate(&wire.Mutate{Circuit: "tdyn", Ops: []wire.MutateOp{
		{Op: wire.OpAdd, WireID: 901, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(25, 3)}},
		{Op: wire.OpReroute, WireID: c.Wires[0].ID},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if aresp.Status != wire.StatusOK || aresp.Epoch != 2 || aresp.Wires != len(c.Wires)+1 || len(aresp.Results) != 2 {
		t.Fatalf("mutate response %+v: want OK, epoch 2, %d wires, 2 results", aresp, len(c.Wires)+1)
	}
	if r := aresp.Results[0]; r.Op != wire.OpAdd || r.WireID != 901 || r.PathCells <= 0 {
		t.Errorf("add outcome %+v: want a routed path for wire 901", r)
	}
	if aresp, err = conn.DoMutate(&wire.Mutate{Circuit: "ghost", Ops: []wire.MutateOp{
		{Op: wire.OpReroute, WireID: 0},
	}}); err != nil || aresp.Status != wire.StatusUnknownCircuit {
		t.Fatalf("mutate of unknown circuit: %+v, %v — want StatusUnknownCircuit", aresp, err)
	}

	// The binary upload is the same circuit the JSON surface reports.
	_, _, raw := doReq(t, ts, http.MethodGet, "/v1/circuits", "")
	var cdoc circuitsDoc
	if err := json.Unmarshal(raw, &cdoc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range cdoc.Circuits {
		if d.Name == "tdyn" {
			found = true
			if d.MutationEpoch != 2 || d.Wires != len(c.Wires)+1 || !d.Mutable {
				t.Errorf("HTTP view of TCP lifecycle %+v: want mutation_epoch 2, %d wires, mutable", d, len(c.Wires)+1)
			}
		}
	}
	if !found {
		t.Fatalf("/v1/circuits does not list the TCP upload: %s", raw)
	}

	if aresp, err = conn.DoEvict(&wire.Evict{Circuit: "tdyn"}); err != nil || aresp.Status != wire.StatusOK {
		t.Fatalf("evict: %+v, %v", aresp, err)
	}
	if aresp, err = conn.DoEvict(&wire.Evict{Circuit: "tdyn"}); err != nil || aresp.Status != wire.StatusUnknownCircuit {
		t.Fatalf("double evict: %+v, %v — want StatusUnknownCircuit", aresp, err)
	}
	if rresp, err = conn.Do(&wire.Request{Circuit: "tdyn", WireID: 1,
		Pins: []geom.Point{geom.Pt(1, 1), geom.Pt(20, 2)}}); err != nil || rresp.Status != wire.StatusUnknownCircuit {
		t.Fatalf("route after evict: %+v, %v — want StatusUnknownCircuit", rresp, err)
	}
}

// TestMutationInvalidatesCache pins the cache-invalidation edge of the
// tentpole: a mutation bumps the cost epoch, so a result cached under
// the pre-mutation congestion state can never be served again.
func TestMutationInvalidatesCache(t *testing.T) {
	s := newServer(t, Config{
		Shards: 1,
		Policy: policy.Config{CacheEntries: 64},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"circuit":"svc","wire":5,"pins":[[2,1],[40,4]]}`
	if code, doc := postRoute(t, ts, body); code != http.StatusOK || doc["cached"] == true {
		t.Fatalf("first request: status %d cached %v", code, doc["cached"])
	}
	if _, doc := postRoute(t, ts, body); doc["cached"] != true {
		t.Fatal("repeat request not served from the cache")
	}

	w0 := testCircuit(t).Wires[0].ID
	if _, err := s.Mutate(MutateRequest{Circuit: "svc", Ops: []store.Op{{Kind: store.OpReroute, WireID: w0}}}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if _, doc := postRoute(t, ts, body); doc["cached"] == true {
		t.Error("request after a mutation served from the stale epoch")
	}
}

// TestEvictWhileCachedNoGhost pins the evict/cache interaction: results
// cached for an evicted circuit must never answer for a later upload
// reusing the name (the cache key carries a per-registration
// generation).
func TestEvictWhileCachedNoGhost(t *testing.T) {
	s := newServer(t, Config{
		Shards: 1,
		Policy: policy.Config{CacheEntries: 64},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dynCircuit(t, "ghost", 13)
	if code, _, raw := doReq(t, ts, http.MethodPost, "/v1/circuits/ghost", uploadDoc(t, c)); code != http.StatusCreated {
		t.Fatalf("upload: status %d (%s)", code, raw)
	}
	body := `{"circuit":"ghost","wire":4,"pins":[[1,1],[20,2]]}`
	postRoute(t, ts, body)
	if _, doc := postRoute(t, ts, body); doc["cached"] != true {
		t.Fatal("repeat request not cached before eviction")
	}

	if code, _, _ := doReq(t, ts, http.MethodDelete, "/v1/circuits/ghost", ""); code != http.StatusOK {
		t.Fatal("evict failed")
	}
	if code, _, raw := doReq(t, ts, http.MethodPost, "/v1/circuits/ghost", uploadDoc(t, c)); code != http.StatusCreated {
		t.Fatalf("re-upload: status %d (%s)", code, raw)
	}
	// Same name, same pins, fresh registration: the cache must miss.
	if code, doc := postRoute(t, ts, body); code != http.StatusOK || doc["cached"] == true {
		t.Fatalf("route after re-upload: status %d cached %v — ghost cache hit", code, doc["cached"])
	}
	// And the new registration's own cache works.
	if _, doc := postRoute(t, ts, body); doc["cached"] != true {
		t.Error("repeat request after re-upload not cached")
	}
}

// TestConcurrentLifecycleRace hammers upload/evict/route on one name
// from concurrent goroutines; meaningful under -race. Any error must be
// one of the lifecycle's defined outcomes — never a panic, deadlock or
// torn state.
func TestConcurrentLifecycleRace(t *testing.T) {
	s := newServer(t, Config{Shards: 2})

	const iters = 20
	circs := make([]*circuit.Circuit, iters)
	for i := range circs {
		circs[i] = dynCircuit(t, "race", int64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch g {
				case 0:
					if _, err := s.UploadCircuit(circs[i]); err != nil &&
						!errors.Is(err, ErrCircuitExists) && !errors.Is(err, ErrUnknownCircuit) {
						t.Errorf("upload %d: %v", i, err)
					}
				case 1:
					if err := s.EvictCircuit("race"); err != nil && !errors.Is(err, ErrUnknownCircuit) {
						t.Errorf("evict %d: %v", i, err)
					}
				case 2:
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					_, err := s.Route(ctx, RouteRequest{Circuit: "race",
						Wire: circuit.Wire{ID: i, Pins: []geom.Point{geom.Pt(1, 1), geom.Pt(20, 2)}}})
					cancel()
					if err != nil && !errors.Is(err, ErrUnknownCircuit) && !errors.Is(err, ErrDeadline) {
						t.Errorf("route %d: %v", i, err)
					}
				case 3:
					if _, err := s.Mutate(MutateRequest{Circuit: "race",
						Ops: []store.Op{{Kind: store.OpReroute, WireID: 0}}}); err != nil &&
						!errors.Is(err, ErrUnknownCircuit) && !errors.Is(err, store.ErrBadOp) {
						t.Errorf("mutate %d: %v", i, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The untouched startup circuit still serves.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.Route(ctx, RouteRequest{Circuit: "svc",
		Wire: circuit.Wire{ID: 1, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}}}); err != nil {
		t.Fatalf("route after lifecycle storm: %v", err)
	}
}

// TestDrainLosesNothingWithMutation pins the drain contract with a
// mutation landing while requests are queued: every queued request is
// answered, the mutation is applied, and the epoch accounts for both.
func TestDrainLosesNothingWithMutation(t *testing.T) {
	s, release := newParkedServer(t, Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := postRoute(t, ts, fmt.Sprintf(
				`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]],"commit":true}`, i))
			codes <- code
		}(i)
	}
	waitQueued(t, s, n)

	w0 := testCircuit(t).Wires[0].ID
	if _, err := s.Mutate(MutateRequest{Circuit: "svc",
		Ops: []store.Op{{Kind: store.OpReroute, WireID: w0}}}); err != nil {
		t.Fatalf("mutation with requests queued: %v", err)
	}
	s.BeginDrain()
	release()
	wg.Wait()
	s.Close()

	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request finished %d during drain, want 200", code)
		}
	}
	v := counters(s)
	if v["served"] != n || v["committed"] != n || v["mutations"] != 1 {
		t.Errorf("served=%d committed=%d mutations=%d, want %d/%d/1", v["served"], v["committed"], v["mutations"], n, n)
	}
	// Epoch: n commits + 1 mutation result.
	if got := s.Epoch("svc"); got != n+1 {
		t.Errorf("epoch after drain = %d, want %d", got, n+1)
	}
	// The mutation reached the store before the drain finished.
	if info, ok := s.store.Get("svc"); !ok || info.Epoch != 1 {
		t.Errorf("store epoch = %+v ok=%v, want epoch 1", info, ok)
	}
}

// TestMutationAppliedBeforePop pins the mutation's visibility to queued
// work: a mutation acknowledged while a request waits for a busy shard
// loop is in the serving array by the time the request is evaluated, so
// the released batch reports the post-mutation cost.
func TestMutationAppliedBeforePop(t *testing.T) {
	pool := par.New(1)
	s := newServer(t, Config{Shards: 1, Pool: pool})
	probe := func() int64 {
		t.Helper()
		resp, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(1)})
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		return resp.Cost
	}
	before := probe()

	release := park(t, pool)
	queued := make(chan int64, 1)
	go func() { queued <- probe() }()
	waitQueued(t, s, 1)
	// A new wire on the probe's own pins congests every path it can take.
	if _, err := s.Mutate(MutateRequest{Circuit: "svc",
		Ops: []store.Op{{Kind: store.OpAdd, WireID: 900, Pins: testWire(900).Pins}}}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	release()

	got, after := <-queued, probe()
	if after <= before {
		t.Fatalf("cost %d after the mutation, %d before: the mutation did not congest the probe", after, before)
	}
	if got != after {
		t.Errorf("request queued across the mutation cost %d, want the post-mutation %d (pre-mutation %d)", got, after, before)
	}
}

// TestCachedRouteFollowsMutation pins the cache's epoch contract against
// a racing reader: once Mutate returns, a route is answered from the
// mutated array, even while another client keeps the same wire hot in
// the result cache. A mutation must reach the serving array before the
// epoch moves; otherwise a racing request can capture the new epoch, be
// evaluated against the old array, and cache that answer under the new
// epoch, where an identical later request finds it.
func TestCachedRouteFollowsMutation(t *testing.T) {
	s := newServer(t, Config{Shards: 4, Policy: policy.Config{CacheEntries: 64}})
	probe := RouteRequest{Circuit: "svc", Wire: testWire(1)}
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Route(context.Background(), probe); err != nil {
				t.Errorf("hammer Route: %v", err)
				return
			}
		}
	}()
	defer func() { close(stop); hammer.Wait() }()

	// Adding a wire on the probe's own pins, then removing it, moves the
	// probe's answer with every mutation; rerouting the circuit's wires
	// moved it once in 300.
	for i := range 300 {
		op := store.Op{Kind: store.OpAdd, WireID: 900, Pins: testWire(900).Pins}
		if i%2 == 1 {
			op = store.Op{Kind: store.OpRemove, WireID: 900}
		}
		if _, err := s.Mutate(MutateRequest{Circuit: "svc", Ops: []store.Op{op}}); err != nil {
			t.Fatalf("Mutate %d: %v", i, err)
		}
		got, err := s.Route(context.Background(), probe)
		if err != nil {
			t.Fatalf("probe Route %d: %v", i, err)
		}
		arr, _ := s.store.CloneArray("svc")
		want := new(route.Scratch).RouteWire(route.ArrayView{A: arr}, &probe.Wire, route.DefaultParams())
		if got.Cost != want.Cost || got.CellsExamined != want.CellsExamined || got.PathCells != want.Path.Len() {
			t.Fatalf("after mutation %d the probe answered cost %d, %d cells examined, %d path cells (cached %v); the mutated array gives %d, %d, %d",
				i, got.Cost, got.CellsExamined, got.PathCells, got.Cached, want.Cost, want.CellsExamined, want.Path.Len())
		}
	}
}

// TestServerRestartIdentity drives the dynamic circuit lifecycle across
// a restart on a persistent store: upload a circuit, mutate it, close
// the server and then the store (which snapshots), reopen both on the
// same directory, and require the recovered state to be identical — the
// same canonical-array hash and mutation epoch — and still routable.
func TestServerRestartIdentity(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, *store.Store) {
		t.Helper()
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		s, err := New(Config{Shards: 1, Store: st})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s, st
	}

	s, st := open()
	c := dynCircuit(t, "dyn", 3)
	if _, err := s.UploadCircuit(c); err != nil {
		t.Fatalf("UploadCircuit: %v", err)
	}
	resp, err := s.Mutate(MutateRequest{Circuit: "dyn", Ops: []store.Op{
		{Kind: store.OpAdd, WireID: 901, Pins: testWireAt(901, 8, 1, 35, 2).Pins},
		{Kind: store.OpReroute, WireID: c.Wires[0].ID},
	}})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if resp.Epoch != 2 || len(resp.Results) != 2 {
		t.Fatalf("Mutate = epoch %d, %d results; want 2, 2", resp.Epoch, len(resp.Results))
	}
	before, ok := st.Get("dyn")
	if !ok {
		t.Fatal("store does not hold dyn before restart")
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	s2, st2 := open()
	defer st2.Close()
	defer s2.Close()
	if rs := st2.Recovery(); rs.SnapshotCircuits == 0 && rs.ReplayedRecords == 0 {
		t.Errorf("Recovery = %+v, want recovered state after restart", rs)
	}
	after, ok := st2.Get("dyn")
	if !ok {
		t.Fatal("store does not hold dyn after restart")
	}
	if after.ArrayHash != before.ArrayHash {
		t.Errorf("recovered array hash %s != pre-restart %s", after.ArrayHash, before.ArrayHash)
	}
	if after.Epoch != before.Epoch {
		t.Errorf("recovered epoch %d != pre-restart %d", after.Epoch, before.Epoch)
	}
	if _, err := s2.Route(context.Background(), RouteRequest{Circuit: "dyn", Wire: testWireAt(9000, 3, 1, 25, 3)}); err != nil {
		t.Fatalf("Route against recovered circuit: %v", err)
	}
}
