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
	"locusroute/internal/par"
	"locusroute/internal/policy"
)

// postRouteAs fires one /v1/route request under an X-Client identity.
func postRouteAs(t testing.TB, ts *httptest.Server, client, body string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/route", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client", client)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("status %d: undecodable body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header, doc
}

// TestEDFOrdering pins the tentpole scheduling property end to end:
// with one shard, one EDF queue and every request queued before the
// shard can evaluate, the batch is evaluated earliest-deadline-first —
// batch_index follows deadline tightness, not arrival order.
func TestEDFOrdering(t *testing.T) {
	const n = 4
	s, release := newParkedServer(t, Config{
		Shards:   1,
		MaxBatch: n,
		Policy:   policy.Config{EDF: true},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Deadlines seconds apart, so millisecond-scale arrival jitter can
	// never reorder them. Request i carries the (n-i)-th tightest
	// deadline: arrival order is the reverse of criticality order.
	var wg sync.WaitGroup
	indexByDeadline := make([]int, n) // tightness rank -> batch_index
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rank := n - 1 - i // request 0 has the slackest deadline
			deadlineMS := 10000 + 5000*rank
			code, doc := postRoute(t, ts, fmt.Sprintf(
				`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]],"deadline_ms":%d}`, i, deadlineMS))
			if code != http.StatusOK {
				t.Errorf("request %d: status %d (%v)", i, code, doc)
				return
			}
			indexByDeadline[rank] = int(doc["batch_index"].(float64))
			sizes[rank] = int(doc["batch_size"].(float64))
		}(i)
		// Stagger arrivals so the slackest-deadline request is queued
		// first and the tightest arrives last.
		waitQueued(t, s, i+1)
	}
	release()
	wg.Wait()

	for rank := 0; rank < n; rank++ {
		if sizes[rank] != n {
			t.Fatalf("batch_size[rank %d] = %d, want %d (requests split across batches)",
				rank, sizes[rank], n)
		}
	}
	for rank := 0; rank < n; rank++ {
		if indexByDeadline[rank] != rank {
			t.Errorf("deadline rank %d evaluated at batch_index %d, want %d (EDF order): %v",
				rank, indexByDeadline[rank], rank, indexByDeadline)
		}
	}
}

// TestEDFShedsLeastCritical pins the criticality-aware shed: with the
// gate full, a tighter-deadline arrival preempts the slackest queued
// request, which gets 429 + Retry-After while the arrival gets 200.
func TestEDFShedsLeastCritical(t *testing.T) {
	s, release := newParkedServer(t, Config{
		Shards:      1,
		MaxInFlight: 1,
		Policy:      policy.Config{EDF: true},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		hdr  http.Header
		doc  map[string]any
	}
	slack := make(chan result, 1)
	go func() {
		code, hdr, doc := postRouteAs(t, ts, "slack-client",
			`{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":60000}`)
		slack <- result{code, hdr, doc}
	}()
	// Wait until the slack request holds the only gate slot and sits in
	// the queue, where preemption can find it.
	waitQueued(t, s, 1)

	tight := make(chan result, 1)
	go func() {
		code, hdr, doc := postRouteAs(t, ts, "tight-client",
			`{"circuit":"svc","wire":9,"pins":[[3,2],[30,5]],"deadline_ms":5000}`)
		tight <- result{code, hdr, doc}
	}()

	// The eviction answers the slack request while the shard is still
	// busy; the arrival that took its slot is served once it is not.
	r := <-slack
	if r.code != http.StatusTooManyRequests {
		t.Fatalf("preempted request: status %d, want 429 (%v)", r.code, r.doc)
	}
	release()
	if r := <-tight; r.code != http.StatusOK {
		t.Fatalf("tight-deadline arrival: status %d, want 200 (%v)", r.code, r.doc)
	}
	if r.hdr.Get("Retry-After") == "" {
		t.Error("preempted 429 carries no Retry-After")
	}
	if msg, _ := r.doc["error"].(string); !strings.Contains(msg, "more critical") {
		t.Errorf("preempted error %q, want the eviction sentinel text", msg)
	}
	v := counters(s)
	if v["evicted"] != 1 || v["shed"] != 1 {
		t.Errorf("evicted %d shed %d, want 1 and 1", v["evicted"], v["shed"])
	}
}

// TestQueuedVisibleUntilEvaluated pins where a request waits for a busy
// shard: in the queue, not in a popped batch. With every pool slot held
// all admitted requests — the first included — are still queued, so a
// tighter arrival at the full gate finds the slackest of them to evict.
func TestQueuedVisibleUntilEvaluated(t *testing.T) {
	const n = 3
	s, release := newParkedServer(t, Config{
		Shards:      1,
		MaxInFlight: n,
		Policy:      policy.Config{EDF: true},
	})
	route := func(id int, deadline time.Duration) chan error {
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			_, err := s.Route(ctx, RouteRequest{Circuit: "svc", Wire: testWire(id)})
			done <- err
		}()
		return done
	}
	// Request i's deadline is i minutes out: the last admitted is the
	// slackest.
	var admitted [n]chan error
	for i := range admitted {
		admitted[i] = route(i, time.Duration(i+1)*time.Minute)
		waitQueued(t, s, i+1)
	}
	if got := s.InFlight(); got != n {
		t.Fatalf("in flight %d with the gate full, want %d", got, n)
	}

	tight := route(n, 10*time.Second)
	if err := <-admitted[n-1]; !errors.Is(err, policy.ErrEvicted) {
		t.Fatalf("slackest queued request err = %v, want ErrEvicted", err)
	}
	// The arrival took the victim's slot and its place in the queue.
	waitQueued(t, s, n)
	release()
	for i, done := range append(admitted[:n-1:n-1], tight) {
		if err := <-done; err != nil {
			t.Errorf("request %d: %v, want nil once the shard is free", i, err)
		}
	}
	if v := counters(s); v["evicted"] != 1 || v["served"] != n {
		t.Errorf("evicted %d served %d, want 1 and %d", v["evicted"], v["served"], n)
	}
}

// testWire builds a wire inside the test circuit's grid for direct
// (non-HTTP) Route calls.
func testWire(id int) circuit.Wire {
	return circuit.Wire{ID: id, Pins: []circuit.Pin{{X: 2, Y: 1}, {X: 40, Y: 4}}}
}

// TestPreemptExpiredVictimNotDoubleCounted pins the metrics split: a
// queued request whose caller already gave up is counted expired by its
// own goroutine; preemption finding its stale queue entry must not also
// count it shed/evicted.
func TestPreemptExpiredVictimNotDoubleCounted(t *testing.T) {
	// The held pool slot keeps entries queued.
	s, _ := newParkedServer(t, Config{
		Shards:      1,
		MaxInFlight: 1,
		Policy:      policy.Config{EDF: true},
	})

	// Park a request in the EDF queue (a plain context picks up the 5s
	// default deadline), then cancel its caller: the request is counted
	// expired and releases its gate slot, but its entry stays queued
	// until the shard can pop it.
	ctx, cancel := context.WithCancel(context.Background())
	routed := make(chan error, 1)
	go func() {
		_, err := s.Route(ctx, RouteRequest{Circuit: "svc", Wire: testWire(1)})
		routed <- err
	}()
	waitQueued(t, s, 1)
	cancel()
	if err := <-routed; !errors.Is(err, ErrDeadline) {
		t.Fatalf("cancelled request err = %v, want ErrDeadline", err)
	}

	// Refill the gate so the next arrival must preempt; the only
	// candidate victim is the stale entry. The arrival's 2s deadline is
	// strictly tighter than the victim's defaulted 5s, so EvictSlackest
	// really hands back the stale entry.
	if !s.gate.TryEnter() {
		t.Fatal("gate refused after the cancelled request released it")
	}
	defer s.gate.Leave()
	tight, tcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer tcancel()
	if _, err := s.Route(tight, RouteRequest{Circuit: "svc", Wire: testWire(2)}); !errors.Is(err, ErrShed) {
		t.Fatalf("arrival err = %v, want ErrShed (stale victim yields no usable slot)", err)
	}

	v := counters(s)
	if v["expired"] != 1 || v["evicted"] != 0 || v["shed"] != 1 {
		t.Errorf("expired %d evicted %d shed %d, want 1/0/1 (stale victim double-counted)",
			v["expired"], v["evicted"], v["shed"])
	}
}

// seedServiceTime books n evaluations of perRequest each, as if the
// shard loops had measured them: the Retry-After estimate's input,
// without timing real work.
func seedServiceTime(s *Server, perRequest time.Duration, n int64) {
	s.met.mu.Lock()
	s.met.served += n
	s.met.evalNs += n * perRequest.Nanoseconds()
	s.met.mu.Unlock()
}

// TestRetryAfterFromQueueState pins the Retry-After derivation: the
// estimate is in-flight × measured mean evaluation time per request ÷
// min(shards, pool workers), rounded up to whole seconds — queue state
// and service time, not a constant. The white-box part drives the gate
// and the measurement directly so the arithmetic is exercised without
// parking real requests behind seconds of real work.
func TestRetryAfterFromQueueState(t *testing.T) {
	s := newServer(t, Config{
		Shards:      4,
		MaxInFlight: 8,
		Pool:        par.New(2),
	})
	enter := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if !s.gate.TryEnter() {
				t.Fatal("gate refused below capacity")
			}
		}
	}
	// Nothing evaluated yet: the floor, whatever the backlog.
	enter(4)
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Errorf("RetryAfterSeconds before any evaluation = %d, want 1", got)
	}
	// 4 in flight at a measured 3s each, retired by min(4 shards, 2 pool
	// workers) = 2 evaluators: 6s.
	seedServiceTime(s, 3*time.Second, 5)
	if got := s.RetryAfterSeconds(); got != 6 {
		t.Errorf("RetryAfterSeconds with backlog 4 = %d, want 6", got)
	}
	// 5 in flight: 7.5s rounds up.
	enter(1)
	if got := s.RetryAfterSeconds(); got != 8 {
		t.Errorf("RetryAfterSeconds with backlog 5 = %d, want 8", got)
	}
	for i := 0; i < 5; i++ {
		s.gate.Leave()
	}
	// Empty backlog: nothing to wait for, never below 1s.
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Errorf("RetryAfterSeconds idle = %d, want 1", got)
	}
}

// TestRetryAfterHeaderOnShed pins the header end to end: a 429 from a
// full gate carries Retry-After equal to the server's drain estimate —
// here one request in flight at a measured 3s per evaluation.
func TestRetryAfterHeaderOnShed(t *testing.T) {
	s, release := newParkedServer(t, Config{
		Shards:      1,
		MaxInFlight: 1,
	})
	seedServiceTime(s, 3*time.Second, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park one request behind the busy shard.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)
	}()
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
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\" (one request at 3s to drain)", got)
	}
	release()
	wg.Wait()
}

// TestCacheHitAndEpochInvalidation pins the result cache over HTTP: a
// repeat request is served cached, and a commit advances the cost epoch
// so the next repeat re-evaluates.
func TestCacheHitAndEpochInvalidation(t *testing.T) {
	s := newServer(t, Config{
		Shards: 1,
		Policy: policy.Config{CacheEntries: 64},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"circuit":"svc","wire":5,"pins":[[2,1],[40,4]]}`
	code, doc1 := postRoute(t, ts, body)
	if code != http.StatusOK || doc1["cached"] == true {
		t.Fatalf("first request: status %d cached %v", code, doc1["cached"])
	}
	code, doc2 := postRoute(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if doc2["cached"] != true {
		t.Error("repeat request not served from the cache")
	}
	if doc2["cost"] != doc1["cost"] || doc2["wire"] != doc1["wire"] {
		t.Errorf("cached response diverges: %v vs %v", doc2, doc1)
	}
	if counters(s)["cache_hits"] != 1 {
		t.Errorf("cache_hits = %d, want 1", counters(s)["cache_hits"])
	}

	// A commit bumps the epoch; the same wire set must re-evaluate.
	commitBody := `{"circuit":"svc","wire":5,"pins":[[2,1],[40,4]],"commit":true}`
	if code, doc := postRoute(t, ts, commitBody); code != http.StatusOK || doc["cached"] == true {
		t.Fatalf("commit request: status %d cached %v (commits must never hit the cache)", code, doc["cached"])
	}
	if got := s.Epoch("svc"); got != 1 {
		t.Fatalf("cost epoch after commit = %d, want 1", got)
	}
	if _, doc := postRoute(t, ts, body); doc["cached"] == true {
		t.Error("request after a commit served from the stale epoch")
	}
}

// TestPolicyMetricsExposed pins the observability satellite: enabled
// elements surface per-element counters on /debug/vars and labelled
// locusd_policy_* series on /metrics.
func TestPolicyMetricsExposed(t *testing.T) {
	s := newServer(t, Config{
		Shards: 1,
		Policy: policy.Config{CacheEntries: 8, EDF: true},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)

	var vars struct {
		Policy []elementVarsDoc `json:"policy"`
	}
	getJSON(t, ts, "/debug/vars", &vars)
	var names []string
	for _, el := range vars.Policy {
		names = append(names, el.Element)
	}
	if fmt.Sprint(names) != "[cache edf]" {
		t.Fatalf("vars policy elements = %v, want [cache edf]", names)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`locusd_policy_scheduled_total{element="edf"} 1`,
		`locusd_policy_misses_total{element="cache"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// One HELP/TYPE pair per metric name even with both elements sharing
	// the evictions_total suffix.
	if got := strings.Count(text, "# TYPE locusd_policy_evictions_total counter"); got != 1 {
		t.Errorf("locusd_policy_evictions_total TYPE lines = %d, want exactly 1", got)
	}
}
