package locusd

import (
	"context"
	"encoding/json"
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
	"locusroute/internal/policy"
	"locusroute/internal/reqtrace"
	"locusroute/internal/wire"
)

// tracedConfig is the base serving config with tracing fully on.
func tracedConfig() Config {
	return Config{
		Shards: 2,
		Tracer: reqtrace.New(reqtrace.Options{Sample: 1, Capacity: 64}),
	}
}

// TestTraceStagesSumToWall pins the accounting invariant end to end:
// the breakdown a real routed response carries sums to the wall
// latency the tracer recorded for that request, exactly.
func TestTraceStagesSumToWall(t *testing.T) {
	cfg := tracedConfig()
	s := newServer(t, cfg)

	for i := 0; i < 5; i++ {
		resp, err := s.Route(context.Background(), RouteRequest{
			Circuit: "svc",
			Wire:    wireReq(100+i, 2, 1, 40, 4),
			Commit:  i%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.RequestID == "" || len(resp.Stages) == 0 {
			t.Fatalf("traced response missing id/stages: %+v", resp)
		}
		var sum int64
		seen := map[string]bool{}
		for _, st := range resp.Stages {
			if st.Ns <= 0 {
				t.Fatalf("non-positive stage %+v", st)
			}
			if st.Code >= uint8(reqtrace.NumStages) || reqtrace.Stage(st.Code).String() != st.Stage {
				t.Fatalf("stage name/code mismatch: %+v", st)
			}
			if seen[st.Stage] {
				t.Fatalf("duplicate stage %q", st.Stage)
			}
			seen[st.Stage] = true
			sum += st.Ns
		}
		if !seen["route"] || !seen["respond"] {
			t.Fatalf("routed request missing route/respond stages: %+v", resp.Stages)
		}
		rec := findRec(t, cfg.Tracer, resp.RequestID)
		if sum != rec.Wall {
			t.Fatalf("response stages sum %dns != recorded wall %dns", sum, rec.Wall)
		}
		var recSum int64
		for _, ns := range rec.Stages {
			recSum += ns
		}
		if recSum != rec.Wall {
			t.Fatalf("record stages sum %dns != wall %dns", recSum, rec.Wall)
		}
		if rec.Outcome != reqtrace.OutcomeOK || rec.Shard != resp.Shard {
			t.Fatalf("record = %+v, response shard %d", rec, resp.Shard)
		}
	}
}

// wireReq builds the standard two-pin test wire.
func wireReq(id, x1, y1, x2, y2 int) circuit.Wire {
	return circuit.Wire{ID: id, Pins: []geom.Point{geom.Pt(x1, y1), geom.Pt(x2, y2)}}
}

// findRec locates a retained record by its echoed id.
func findRec(t testing.TB, tr *reqtrace.Tracer, id string) reqtrace.Rec {
	t.Helper()
	for _, r := range tr.Records() {
		if r.IDString() == id {
			return r
		}
	}
	t.Fatalf("no retained record for %q", id)
	return reqtrace.Rec{}
}

// TestTraceIDEquivalenceJSONBin pins request-id propagation across both
// transports: a supplied id is echoed verbatim, an absent one is minted,
// and both surfaces return the same stage vocabulary.
func TestTraceIDEquivalenceJSONBin(t *testing.T) {
	s := newServer(t, tracedConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	addr, _ := startTCP(t, s)

	// JSON: adopted id comes back in header and body.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/route",
		strings.NewReader(`{"circuit":"svc","wire":301,"pins":[[2,1],[40,4]]}`))
	req.Header.Set(RequestIDHeader, "same-id-both-ways")
	hresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jdoc struct {
		RequestID string `json:"request_id"`
		Stages    []struct {
			Stage string `json:"stage"`
			Ns    int64  `json:"ns"`
		} `json:"stages"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&jdoc); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if got := hresp.Header.Get(RequestIDHeader); got != "same-id-both-ways" {
		t.Fatalf("header id = %q", got)
	}
	if jdoc.RequestID != "same-id-both-ways" || len(jdoc.Stages) == 0 {
		t.Fatalf("json doc = %+v", jdoc)
	}

	// Binary: the same adopted id on a traced frame.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bresp, err := c.Do(&wire.Request{Circuit: "svc", WireID: 302,
		Pins:   []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)},
		Traced: true, TraceID: "same-id-both-ways"})
	if err != nil {
		t.Fatal(err)
	}
	if !bresp.Traced || bresp.RequestID != "same-id-both-ways" {
		t.Fatalf("bin response = %+v", bresp)
	}
	if len(bresp.Stages) == 0 {
		t.Fatal("bin response has no stages")
	}
	jstages := map[string]bool{}
	for _, st := range jdoc.Stages {
		jstages[st.Stage] = true
	}
	for _, p := range bresp.Stages {
		name := reqtrace.Stage(p.Stage).String()
		if !jstages[name] && name != "queue" && name != "batch" && name != "commit" {
			t.Errorf("bin stage %q outside the JSON vocabulary %v", name, jstages)
		}
	}

	// Minted ids: both transports fall back to the r%08x form.
	code, doc := postRoute(t, ts, `{"circuit":"svc","wire":303,"pins":[[2,1],[40,4]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	minted, _ := doc["request_id"].(string)
	if !strings.HasPrefix(minted, "r") || len(minted) != 9 {
		t.Fatalf("json minted id = %q", minted)
	}
	bresp, err = c.Do(&wire.Request{Circuit: "svc", WireID: 304,
		Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(bresp.RequestID, "r") || len(bresp.RequestID) != 9 {
		t.Fatalf("bin minted id = %q", bresp.RequestID)
	}

	// Untraced binary frames get untraced responses: old clients never
	// see the new frame kind.
	bresp, err = c.Do(&wire.Request{Circuit: "svc", WireID: 305,
		Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	if bresp.Traced || bresp.RequestID != "" || bresp.Stages != nil {
		t.Fatalf("untraced request got traced response: %+v", bresp)
	}
}

// TestTraceDisabled pins the off state: no ids anywhere, and a traced
// binary request degrades to an untraced response.
func TestTraceDisabled(t *testing.T) {
	s := newServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	addr, _ := startTCP(t, s)

	code, doc := postRoute(t, ts, `{"circuit":"svc","wire":311,"pins":[[2,1],[40,4]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if _, present := doc["request_id"]; present {
		t.Fatalf("request_id present with tracing off: %v", doc)
	}
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bresp, err := c.Do(&wire.Request{Circuit: "svc", WireID: 312,
		Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if bresp.Traced || bresp.RequestID != "" {
		t.Fatalf("tracing-off server sent a traced response: %+v", bresp)
	}

	// /debug/trace is a 404 when tracing is off, and its body names the
	// flags that actually turn tracing on (-trace-sample does not).
	tresp, err := ts.Client().Get(ts.URL + "/debug/trace?sec=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace status %d with tracing off", tresp.StatusCode)
	}
	if !strings.Contains(string(body), "-trace or -slow-log-threshold") {
		t.Errorf("/debug/trace 404 body %q does not say how to enable tracing", body)
	}
}

// TestTraceErrorPaths pins that failures still echo the id: the error
// body carries it on HTTP and the traced error frame on the binary
// protocol, and the record's outcome classifies the failure.
func TestTraceErrorPaths(t *testing.T) {
	cfg := tracedConfig()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	addr, _ := startTCP(t, s)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/route",
		strings.NewReader(`{"circuit":"nope","wire":1,"pins":[[2,1],[40,4]]}`))
	req.Header.Set(RequestIDHeader, "err-id-1")
	hresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var errDoc struct {
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&errDoc); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", hresp.StatusCode)
	}
	if errDoc.RequestID != "err-id-1" {
		t.Fatalf("error body lost the id: %+v", errDoc)
	}
	rec := findRec(t, cfg.Tracer, "err-id-1")
	if rec.Outcome != reqtrace.OutcomeRejected {
		t.Fatalf("outcome = %v, want rejected", rec.Outcome)
	}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bresp, err := c.Do(&wire.Request{Circuit: "nope", WireID: 2,
		Pins:   []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)},
		Traced: true, TraceID: "err-id-2"})
	if err != nil {
		t.Fatal(err)
	}
	if bresp.Status != wire.StatusUnknownCircuit || !bresp.Traced || bresp.RequestID != "err-id-2" {
		t.Fatalf("bin error response = %+v", bresp)
	}

	// An oversized trace id is rejected outright on both transports.
	long := strings.Repeat("x", reqtrace.MaxTraceID+1)
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/route",
		strings.NewReader(`{"circuit":"svc","wire":3,"pins":[[2,1],[40,4]]}`))
	req.Header.Set(RequestIDHeader, long)
	hresp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized id status %d", hresp.StatusCode)
	}
}

// TestTraceCachedResponse pins the cache/trace interaction: a hit gets
// its own fresh request id and an admit-only breakdown — the cache
// stores the evaluation, never the trace of whoever filled it.
func TestTraceCachedResponse(t *testing.T) {
	cfg := tracedConfig()
	cfg.Policy = policy.Config{CacheEntries: 16}
	s := newServer(t, cfg)

	first, err := s.Route(context.Background(), RouteRequest{
		Circuit: "svc", Wire: wireReq(320, 2, 1, 40, 4)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Route(context.Background(), RouteRequest{
		Circuit: "svc", Wire: wireReq(320, 2, 1, 40, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("second response not cached: %+v", second)
	}
	if second.RequestID == "" || second.RequestID == first.RequestID {
		t.Fatalf("cached id %q vs first %q", second.RequestID, first.RequestID)
	}
	for _, st := range second.Stages {
		if st.Stage == "route" || st.Stage == "queue" {
			t.Fatalf("cached response charged %q: %+v", st.Stage, second.Stages)
		}
	}
	rec := findRec(t, cfg.Tracer, second.RequestID)
	if rec.Outcome != reqtrace.OutcomeCached {
		t.Fatalf("outcome = %v, want cached", rec.Outcome)
	}
}

// TestDebugTraceEndpoint pins the live capture: requests finishing
// inside the window come back as a structurally valid Chrome trace.
func TestDebugTraceEndpoint(t *testing.T) {
	s := newServer(t, tracedConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			postRoute(t, ts, fmt.Sprintf(`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]]}`, 400+i))
			time.Sleep(5 * time.Millisecond)
		}
	}()
	resp, err := ts.Client().Get(ts.URL + "/debug/trace?sec=0.3")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if checkChromeTrace(t, raw) == 0 {
		t.Fatal("capture contains no request spans")
	}

	// Bad windows are rejected.
	for _, q := range []string{"sec=0", "sec=-1", "sec=bogus"} {
		r, err := ts.Client().Get(ts.URL + "/debug/trace?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s → status %d, want 400", q, r.StatusCode)
		}
	}
}

// checkChromeTrace fails the test unless raw is a structurally valid
// Chrome trace — balanced B/E per track, timestamps ascending per track,
// every request span carrying its id — and returns the number of
// request spans in it.
func checkChromeTrace(t *testing.T, raw []byte) int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	depth := map[int]int{}
	lastTS := map[int]float64{}
	requests := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			depth[e.Tid]++
		case "E":
			depth[e.Tid]--
			if depth[e.Tid] < 0 {
				t.Fatalf("unbalanced E on tid %d", e.Tid)
			}
		default:
			continue
		}
		if e.Ts < lastTS[e.Tid] {
			t.Fatalf("timestamps regress on tid %d", e.Tid)
		}
		lastTS[e.Tid] = e.Ts
		if e.Ph == "B" && e.Name == "request" {
			requests++
			if _, ok := e.Args["request_id"]; !ok {
				t.Fatalf("request span missing request_id: %+v", e.Args)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d ends unbalanced at depth %d", tid, d)
		}
	}
	return requests
}

// TestDebugTraceEndsOnDrain pins that a capture in flight does not hold
// a shutdown to the end of its window: BeginDrain ends a 60 s capture at
// once, and what the window caught so far still comes back as a valid
// trace. The tracer samples nothing by itself, so a retained record is
// the sign that the capture window is open.
func TestDebugTraceEndsOnDrain(t *testing.T) {
	cfg := tracedConfig()
	cfg.Tracer = reqtrace.New(reqtrace.Options{Sample: 0, Capacity: 64})
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type capture struct {
		raw []byte
		err error
	}
	done := make(chan capture, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/debug/trace?sec=60")
		if err != nil {
			done <- capture{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		done <- capture{raw, err}
	}()
	for i := 0; cfg.Tracer.Stats().Retained == 0; i++ {
		if i == 1000 {
			t.Fatal("capture window never opened")
		}
		postRoute(t, ts, fmt.Sprintf(`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]]}`, 500+i))
	}
	begun := time.Now()
	s.BeginDrain()
	select {
	case c := <-done:
		if c.err != nil {
			t.Fatal(c.err)
		}
		if took := time.Since(begun); took > time.Second {
			t.Errorf("capture returned %v after BeginDrain", took)
		}
		if checkChromeTrace(t, c.raw) == 0 {
			t.Error("the window captured before the drain was not written")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("capture still blocked 10 s after BeginDrain")
	}
}

// TestTracePolicyElementTiming pins the per-element detail: a traced
// request through the result cache records the cache's lookup time on
// its retained record.
func TestTracePolicyElementTiming(t *testing.T) {
	cfg := tracedConfig()
	cfg.Policy = policy.Config{CacheEntries: 8}
	s := newServer(t, cfg)

	resp, err := s.Route(context.Background(), RouteRequest{
		Circuit: "svc", Wire: wireReq(330, 2, 1, 40, 4)})
	if err != nil {
		t.Fatal(err)
	}
	rec := findRec(t, cfg.Tracer, resp.RequestID)
	if len(rec.Policy) != 1 || rec.Policy[0].Element != "cache" {
		t.Errorf("policy timing = %+v, want the cache's alone", rec.Policy)
	}
}
