package locusd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/obs"
	"locusroute/internal/policy"
	"locusroute/internal/reqtrace"
	"locusroute/internal/store"
	"locusroute/internal/wire"
)

// RequestIDHeader carries the request id on both directions of the HTTP
// transport: a client sets it to have the server adopt its id, and the
// server always echoes the effective id (adopted or minted) when tracing
// is enabled — on errors too, so a 429 remains attributable.
const RequestIDHeader = "X-Locus-Request-Id"

// routeBody is the POST /v1/route request document.
type routeBody struct {
	// Circuit names a preloaded circuit (required).
	Circuit string `json:"circuit"`
	// Wire is the request wire's ID (optional label).
	Wire int `json:"wire"`
	// Pins are the wire's [x, y] terminals (>= 2, inside the grid).
	Pins [][2]int `json:"pins"`
	// Commit places the path on the serving replica.
	Commit bool `json:"commit"`
	// DeadlineMillis bounds queue wait + evaluation (0 = the server's
	// default deadline).
	DeadlineMillis int64 `json:"deadline_ms"`
}

// errorBody is every non-200 JSON response.
type errorBody struct {
	Error string `json:"error"`
	// RequestID is the traced request's echoed id; empty when tracing is
	// disabled or the failure happened before a span existed.
	RequestID string `json:"request_id,omitempty"`
}

// Handler returns the service's HTTP API. The API lives under the /v1
// prefix and nowhere else:
//
//	POST   /v1/route           route one wire         -> RouteResponse
//	GET    /v1/circuits        served circuits        -> circuitsDoc
//	POST   /v1/circuits/{name} upload a circuit       -> circuitDoc (201)
//	DELETE /v1/circuits/{name} evict a circuit
//	POST   /v1/mutate          mutate a circuit       -> MutateResponse
//	GET    /v1/healthz         liveness + drain state -> healthDoc (503 draining)
//	GET    /v1/metrics         Prometheus text exposition
//
// Debug endpoints stay unversioned (they are operator surface, not API):
//
//	GET  /debug/vars   counters + histograms as stable-order JSON
//	GET  /debug/trace  live request-trace capture (Chrome trace JSON)
//	GET  /debug/pprof/ net/http/pprof (only with Config.EnablePProf)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", s.handleRoute)
	mux.HandleFunc("GET /v1/circuits", s.handleCircuits)
	mux.HandleFunc("POST /v1/circuits/{name}", s.handleCircuitUpload)
	mux.HandleFunc("DELETE /v1/circuits/{name}", s.handleCircuitEvict)
	mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	if s.cfg.EnablePProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// readBody decodes a request document into body, answering 400 itself
// when it cannot — 413 when the document is larger than the binary
// transport's frame limit; it reports whether the handler should go on.
func readBody(w http.ResponseWriter, r *http.Request, body any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxFrame)).Decode(body)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body over %d bytes", tooBig.Limit)})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
	}
	return err == nil
}

// points converts a document's [x, y] pairs.
func points(pins [][2]int) []geom.Point {
	var pts []geom.Point
	for _, p := range pins {
		pts = append(pts, geom.Pt(p[0], p[1]))
	}
	return pts
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var body routeBody
	if !readBody(w, r, &body) {
		return
	}
	ctx, cancel, err := s.withDeadline(r.Context(), body.DeadlineMillis)
	if err != nil {
		s.writeError(w, err, "")
		return
	}
	defer cancel()
	resp, err := s.Route(ctx, RouteRequest{
		Circuit: body.Circuit,
		Wire:    circuit.Wire{ID: body.Wire, Pins: points(body.Pins)},
		Commit:  body.Commit,
		Client:  clientIdentity(r),
		TraceID: r.Header.Get(RequestIDHeader),
	})
	if resp.RequestID != "" {
		w.Header().Set(RequestIDHeader, resp.RequestID)
	}
	if err != nil {
		s.writeError(w, err, resp.RequestID)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxDeadlineMillis is the largest deadline_ms a time.Duration can hold.
const maxDeadlineMillis = int64(math.MaxInt64 / time.Millisecond)

// withDeadline bounds ctx by a request's explicit deadline_ms on either
// transport; without one Route applies the server's default, the same
// as for any embedder. A deadline_ms that overflows a time.Duration
// (wrapping to an instant expiry) is rejected and counted, never clamped.
func (s *Server) withDeadline(ctx context.Context, millis int64) (context.Context, context.CancelFunc, error) {
	if millis > maxDeadlineMillis {
		s.count(&s.met.rejected)
		return nil, nil, fmt.Errorf("locusd: deadline_ms %d exceeds %d", millis, maxDeadlineMillis)
	}
	if millis <= 0 {
		return ctx, func() {}, nil
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(millis)*time.Millisecond)
	return ctx, cancel, nil
}

// clientIdentity is the rate limiter's caller key: the X-Client header
// when present, else the remote host.
func clientIdentity(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	return hostOf(r.RemoteAddr)
}

// hostOf strips the port from a remote address — the default client
// identity on both transports.
func hostOf(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// writeError renders a service error as its HTTP response: the code and
// the Retry-After header both come from classify, the one error table
// the binary transport answers from too.
func (s *Server) writeError(w http.ResponseWriter, err error, requestID string) {
	status, retryAfter := s.classify(err)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status.HTTPStatus(), errorBody{Error: err.Error(), RequestID: requestID})
}

// classify is the service's one error→status table: the protocol status
// both transports report for a service, store or policy error (HTTP
// through wire.Status.HTTPStatus) and the Retry-After seconds a
// backpressure status owes the client, 0 for none — the estimated
// backlog drain time for gate sheds and criticality evictions (queue
// state, not a constant), the token refill time for a rate limit, the
// cooldown remainder for an open breaker. Anything unrecognised —
// validation errors above all — is a bad request.
func (s *Server) classify(err error) (status wire.Status, retryAfterSeconds int) {
	var rle *policy.RateLimitedError
	var boe *policy.BreakerOpenError
	switch {
	case errors.Is(err, ErrShed), errors.Is(err, policy.ErrEvicted):
		return wire.StatusShed, s.RetryAfterSeconds()
	case errors.As(err, &rle):
		return wire.StatusRateLimited, ceilSeconds(rle.RetryAfter)
	case errors.As(err, &boe):
		return wire.StatusBreakerOpen, ceilSeconds(boe.RetryAfter)
	case errors.Is(err, policy.ErrRateLimited):
		return wire.StatusRateLimited, 0
	case errors.Is(err, policy.ErrBreakerOpen):
		return wire.StatusBreakerOpen, 0
	case errors.Is(err, ErrDraining):
		return wire.StatusDraining, 0
	case errors.Is(err, ErrDeadline):
		return wire.StatusDeadline, 0
	case errors.Is(err, policy.ErrDeadlineInfeasible):
		return wire.StatusInfeasible, 0
	case errors.Is(err, ErrUnknownCircuit), errors.Is(err, store.ErrUnknown):
		return wire.StatusUnknownCircuit, 0
	case errors.Is(err, ErrCircuitExists), errors.Is(err, ErrImmutable):
		return wire.StatusConflict, 0
	case errors.Is(err, store.ErrStoreFull):
		return wire.StatusStoreFull, 0
	}
	return wire.StatusBadRequest, 0
}

// ceilSeconds rounds a duration up to whole seconds, minimum 1 — the
// Retry-After header's unit.
func ceilSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleTrace serves GET /debug/trace?sec=N: it opens a live capture
// window on the request tracer, blocks for the window (like pprof's
// /debug/pprof/profile), and writes every request that finished inside
// it as a Chrome/Perfetto trace document. 404 when tracing is disabled.
// A drain or a client that goes away ends the wait at once: the window
// captured so far is written, so a capture in flight at shutdown never
// holds the HTTP server open and an abandoned one holds no goroutine.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.cfg.Tracer
	if tr == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "request tracing disabled (enable it with -trace or -slow-log-threshold)"})
		return
	}
	sec := 1.0
	if q := r.URL.Query().Get("sec"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad sec %q: want a positive number of seconds", q)})
			return
		}
		sec = v
	}
	// The cap bounds how long one request keeps the tracer retaining
	// every finished record.
	if sec > 60 {
		sec = 60
	}
	dur := time.Duration(sec * float64(time.Second))
	from, to := tr.CaptureFor(dur)
	window := time.NewTimer(dur)
	defer window.Stop()
	select {
	case <-window.C:
	case <-r.Context().Done():
	case <-s.drainc:
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tr.WriteChrome(w, from, to)
}

// buildInfo resolves the binary's go version and VCS revision once, for
// the locusd_build_info gauge and /debug/vars — the correlation key
// between a trace capture and the binary that produced it.
var buildInfo = sync.OnceValue(func() buildInfoDoc {
	doc := buildInfoDoc{GoVersion: "unknown", Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return doc
	}
	doc.GoVersion = bi.GoVersion
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			doc.Revision = s.Value
		}
	}
	return doc
})

type buildInfoDoc struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
}

// circuitDoc is one /circuits entry. The store fields (mutation_epoch,
// store_bytes, array_sha256) are present only for mutable circuits;
// array_sha256 is the canonical array's fingerprint, the value a
// restarted server must reproduce exactly.
type circuitDoc struct {
	Name          string `json:"name"`
	Channels      int    `json:"channels"`
	Grids         int    `json:"grids"`
	Wires         int    `json:"wires"`
	Shards        int    `json:"shards"`
	Backend       string `json:"baseline_backend"`
	CircuitHeight int64  `json:"baseline_circuit_height"`
	Occupancy     int64  `json:"baseline_occupancy"`
	CostEpoch     uint64 `json:"cost_epoch"`
	Mutable       bool   `json:"mutable"`
	MutationEpoch uint64 `json:"mutation_epoch,omitempty"`
	StoreBytes    int64  `json:"store_bytes,omitempty"`
	ArraySHA256   string `json:"array_sha256,omitempty"`
}

type circuitsDoc struct {
	Circuits []circuitDoc `json:"circuits"`
}

// circuitDocFor renders one served circuit, folding in the store's view
// for mutable ones.
func (s *Server) circuitDocFor(sc *servedCircuit) circuitDoc {
	doc := circuitDoc{
		Name:          sc.name,
		Channels:      sc.grid.Channels,
		Grids:         sc.grid.Grids,
		Wires:         int(sc.wireCount.Load()),
		Shards:        len(sc.shards),
		Backend:       string(sc.baseline.Backend),
		CircuitHeight: sc.baseline.CircuitHeight,
		Occupancy:     sc.baseline.Occupancy,
		CostEpoch:     sc.epoch.Load(),
		Mutable:       sc.mutable,
	}
	if sc.mutable {
		if info, ok := s.store.Get(sc.name); ok {
			doc.MutationEpoch = info.Epoch
			doc.StoreBytes = info.Bytes
			doc.ArraySHA256 = info.ArrayHash
		}
	}
	return doc
}

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	doc := circuitsDoc{Circuits: []circuitDoc{}}
	for _, sc := range s.served() {
		doc.Circuits = append(doc.Circuits, s.circuitDocFor(sc))
	}
	writeJSON(w, http.StatusOK, doc)
}

// uploadBody is the POST /v1/circuits/{name} request document.
type uploadBody struct {
	Channels int          `json:"channels"`
	Grids    int          `json:"grids"`
	Wires    []uploadWire `json:"wires"`
}

type uploadWire struct {
	ID   int      `json:"id"`
	Pins [][2]int `json:"pins"`
}

func (s *Server) handleCircuitUpload(w http.ResponseWriter, r *http.Request) {
	var body uploadBody
	if !readBody(w, r, &body) {
		return
	}
	c := &circuit.Circuit{
		Name: r.PathValue("name"),
		Grid: geom.Grid{Channels: body.Channels, Grids: body.Grids},
	}
	for _, uw := range body.Wires {
		c.Wires = append(c.Wires, circuit.Wire{ID: uw.ID, Pins: points(uw.Pins)})
	}
	if _, err := s.UploadCircuit(c); err != nil {
		s.writeError(w, err, "")
		return
	}
	sc := s.lookupServed(c.Name)
	if sc == nil {
		// Evicted between upload and render; the upload itself succeeded.
		writeJSON(w, http.StatusCreated, circuitDoc{Name: c.Name})
		return
	}
	defer sc.inflight.Done()
	writeJSON(w, http.StatusCreated, s.circuitDocFor(sc))
}

func (s *Server) handleCircuitEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.EvictCircuit(name); err != nil {
		s.writeError(w, err, "")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": name})
}

// mutateBody is the POST /v1/mutate request document.
type mutateBody struct {
	Circuit string         `json:"circuit"`
	Ops     []mutateOpBody `json:"ops"`
}

type mutateOpBody struct {
	// Op is "add", "remove" or "reroute".
	Op   string   `json:"op"`
	Wire int      `json:"wire"`
	Pins [][2]int `json:"pins,omitempty"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var body mutateBody
	if !readBody(w, r, &body) {
		return
	}
	req := MutateRequest{Circuit: body.Circuit, Client: clientIdentity(r)}
	for _, ob := range body.Ops {
		op := store.Op{WireID: ob.Wire, Pins: points(ob.Pins)}
		switch ob.Op {
		case "add":
			op.Kind = store.OpAdd
		case "remove":
			op.Kind = store.OpRemove
		case "reroute":
			op.Kind = store.OpReroute
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("unknown op %q (want add, remove or reroute)", ob.Op)})
			return
		}
		req.Ops = append(req.Ops, op)
	}
	resp, err := s.Mutate(req)
	if err != nil {
		s.writeError(w, err, "")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

type healthDoc struct {
	Status   string `json:"status"`
	InFlight int    `json:"in_flight"`
	UptimeMS int64  `json:"uptime_ms"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := healthDoc{Status: "ok", InFlight: s.InFlight(), UptimeMS: time.Since(s.started).Milliseconds()}
	code := http.StatusOK
	if s.Draining() {
		doc.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, doc)
}

// counterDoc is one policy-element counter in /debug/vars.
type counterDoc struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// elementVarsDoc is one policy element's counters in /debug/vars.
type elementVarsDoc struct {
	Element  string       `json:"element"`
	Counters []counterDoc `json:"counters"`
}

// varsDoc is the /debug/vars document; field order is the struct order,
// so the rendering is stable. EvalUs is the shard loops' cumulative
// evaluation time: over uptime × evaluators it is shard utilisation,
// over Served the mean service time Retry-After is derived from.
type varsDoc struct {
	Build     buildInfoDoc      `json:"build"`
	StartUnix int64             `json:"start_unix"`
	UptimeMS  int64             `json:"uptime_ms"`
	Draining  bool              `json:"draining"`
	InFlight  int               `json:"in_flight"`
	Capacity  int               `json:"capacity"`
	Served    int64             `json:"served"`
	Committed int64             `json:"committed"`
	Shed      int64             `json:"shed"`
	Evicted   int64             `json:"evicted"`
	Expired   int64             `json:"expired"`
	Rejected  int64             `json:"rejected"`
	Denied    int64             `json:"denied"`
	CacheHits int64             `json:"cache_hits"`
	Uploads   int64             `json:"uploads"`
	Evictions int64             `json:"evictions"`
	Mutations int64             `json:"mutations"`
	Batches   int64             `json:"batches"`
	EvalUs    int64             `json:"eval_us"`
	Policy    []elementVarsDoc  `json:"policy,omitempty"`
	BatchSize *obs.HistogramDoc `json:"batch_size,omitempty"`
	WaitUs    *obs.HistogramDoc `json:"wait_us,omitempty"`
	RouteCost *obs.HistogramDoc `json:"route_cost,omitempty"`
	// Trace is present only when request tracing is enabled: the ring
	// counters and the per-stage latency histograms (µs), keyed by the
	// reqtrace stage names.
	Trace   *reqtrace.Stats              `json:"trace,omitempty"`
	StageUs map[string]*obs.HistogramDoc `json:"stage_us,omitempty"`
}

func (s *Server) vars() varsDoc {
	s.met.mu.Lock()
	doc := varsDoc{
		Build:     buildInfo(),
		StartUnix: s.started.Unix(),
		UptimeMS:  time.Since(s.started).Milliseconds(),
		Draining:  s.Draining(),
		InFlight:  s.InFlight(),
		Capacity:  s.cfg.MaxInFlight,
		Served:    s.met.served,
		Committed: s.met.committed,
		Shed:      s.met.shed,
		Evicted:   s.met.evicted,
		Expired:   s.met.expired,
		Rejected:  s.met.rejected,
		Denied:    s.met.denied,
		CacheHits: s.met.cacheHits,
		Uploads:   s.met.uploads,
		Evictions: s.met.evictions,
		Mutations: s.met.mutations,
		Batches:   s.met.batches,
		EvalUs:    s.met.evalNs / 1e3,
		BatchSize: s.met.batchSize.Doc(),
		WaitUs:    s.met.waitUs.Doc(),
		RouteCost: s.met.routeCost.Doc(),
	}
	if tr := s.cfg.Tracer; tr != nil {
		st := tr.Stats()
		doc.Trace = &st
		doc.StageUs = make(map[string]*obs.HistogramDoc, int(reqtrace.NumStages))
		for i := reqtrace.Stage(0); i < reqtrace.NumStages; i++ {
			if d := s.met.stageUs[i].Doc(); d != nil {
				doc.StageUs[i.String()] = d
			}
		}
	}
	s.met.mu.Unlock()
	for _, el := range s.chain.Elements() {
		ev := elementVarsDoc{Element: el.Name()}
		for _, c := range el.Counters() {
			ev.Counters = append(ev.Counters, counterDoc{Name: c.Name, Value: c.Value})
		}
		doc.Policy = append(doc.Policy, ev)
	}
	return doc
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.vars())
}

// handleMetrics renders the Prometheus text exposition format from the
// same numbers as /debug/vars, through the shared obs.PromText writer.
// Policy-element counters export as
// locusd_policy_<counter>{element="<name>"} series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := s.vars()
	var pt obs.PromText
	pt.Counter("locusd_requests_served_total", "wire evaluations completed", v.Served)
	pt.Counter("locusd_requests_committed_total", "evaluations committed to a serving replica", v.Committed)
	pt.Counter("locusd_requests_shed_total", "requests shed with 429 at the admission gate", v.Shed)
	pt.Counter("locusd_requests_evicted_total", "queued requests shed for more critical arrivals", v.Evicted)
	pt.Counter("locusd_requests_expired_total", "requests whose deadline expired before evaluation", v.Expired)
	pt.Counter("locusd_requests_rejected_total", "requests rejected by validation", v.Rejected)
	pt.Counter("locusd_requests_denied_total", "requests denied by the policy chain", v.Denied)
	pt.Counter("locusd_cache_hits_total", "requests answered from the result cache", v.CacheHits)
	pt.Counter("locusd_circuit_uploads_total", "circuits uploaded at runtime", v.Uploads)
	pt.Counter("locusd_circuit_evictions_total", "circuits evicted at runtime", v.Evictions)
	pt.Counter("locusd_mutations_total", "mutation ops applied to served circuits", v.Mutations)
	pt.Counter("locusd_batches_total", "batches evaluated by the shard loops", v.Batches)
	pt.Counter("locusd_eval_us_total", "microseconds the shard loops spent evaluating batches", v.EvalUs)
	pt.Gauge("locusd_in_flight", "admitted requests currently in flight", int64(v.InFlight))
	pt.Gauge("locusd_capacity", "admission gate capacity", int64(v.Capacity))
	pt.Gauge("locusd_build_info", "build metadata as labels, value always 1", 1,
		obs.Label{Name: "go_version", Value: v.Build.GoVersion},
		obs.Label{Name: "revision", Value: v.Build.Revision})
	pt.Gauge("locusd_start_time_seconds", "unix time the process started serving", v.StartUnix)
	pt.Gauge("locusd_uptime_seconds", "seconds since the process started serving", v.UptimeMS/1000)
	draining := int64(0)
	if v.Draining {
		draining = 1
	}
	pt.Gauge("locusd_draining", "1 while the server is draining (refusing new work)", draining)
	if v.Trace != nil {
		pt.Counter("locusd_trace_finished_total", "requests that completed a trace span", int64(v.Trace.Finished))
		pt.Counter("locusd_trace_slow_total", "slow-request log lines emitted", int64(v.Trace.Slow))
		pt.Counter("locusd_trace_dropped_total", "trace records overwritten in the ring", int64(v.Trace.Dropped))
		pt.Gauge("locusd_trace_retained", "trace records currently retained", int64(v.Trace.Retained))
	}
	// Element counters share metric names across elements (the element
	// label distinguishes series), so the help text is the first
	// element's; PromText guarantees one HELP/TYPE pair per name.
	for _, el := range s.chain.Elements() {
		label := obs.Label{Name: "element", Value: el.Name()}
		for _, c := range el.Counters() {
			if strings.HasSuffix(c.Name, "_total") {
				pt.Counter("locusd_policy_"+c.Name, c.Help, c.Value, label)
			} else {
				pt.Gauge("locusd_policy_"+c.Name, c.Help, c.Value, label)
			}
		}
	}
	pt.Histogram("locusd_batch_size", "wires per evaluated batch", v.BatchSize)
	pt.Histogram("locusd_wait_us", "microseconds from admission to evaluation", v.WaitUs)
	pt.Histogram("locusd_route_cost", "chosen path cost per evaluation", v.RouteCost)
	// Stage histograms share one metric name; the stage label
	// distinguishes series. Microseconds rather than the conventional
	// seconds because obs.Histogram buckets are integer powers of two —
	// exact integer math, same convention as locusd_wait_us.
	for i := reqtrace.Stage(0); i < reqtrace.NumStages; i++ {
		if d := v.StageUs[i.String()]; d != nil {
			pt.Histogram("locusd_stage_us", "per-stage request latency in microseconds", d,
				obs.Label{Name: "stage", Value: i.String()})
		}
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = w.Write(pt.Bytes())
}

// writeJSON writes one JSON document with the right headers; error paths
// that owe the client a Retry-After set it before calling (writeError).
func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
