package locusd

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
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
	// Commit places the path on the circuit's serving array.
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

// readBody decodes a request document into body. A document that does
// not decode is a bad request, one larger than the binary transport's
// frame limit errBodyTooLarge.
func readBody(w http.ResponseWriter, r *http.Request, body any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxFrame)).Decode(body)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return fmt.Errorf("%w over %d bytes", errBodyTooLarge, tooBig.Limit)
	}
	if err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// reply writes a verb's answer: doc under code, or err's refusal — its
// status, Retry-After and error body, carrying the request id when one
// exists so a refused request stays attributable in client logs.
func (s *Server) reply(w http.ResponseWriter, code int, doc any, err error, requestID string) {
	if err != nil {
		rf := s.refuse(err)
		if rf.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(rf.retryAfter))
		}
		code, doc = rf.code, errorBody{Error: rf.msg, RequestID: requestID}
	}
	writeJSON(w, code, doc)
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
	err := readBody(w, r, &body)
	resp, err := s.route(r.Context(), RouteRequest{
		Circuit: body.Circuit,
		Wire:    circuit.Wire{ID: body.Wire, Pins: points(body.Pins)},
		Commit:  body.Commit,
		Client:  r.Header.Get("X-Client"),
		TraceID: r.Header.Get(RequestIDHeader),
	}, body.DeadlineMillis, r.RemoteAddr, err)
	if resp.RequestID != "" {
		w.Header().Set(RequestIDHeader, resp.RequestID)
	}
	s.reply(w, http.StatusOK, resp, err, resp.RequestID)
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
		Shards:        s.cfg.Shards,
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
	err := readBody(w, r, &body)
	c := &circuit.Circuit{
		Name: r.PathValue("name"),
		Grid: geom.Grid{Channels: body.Channels, Grids: body.Grids},
	}
	for _, uw := range body.Wires {
		c.Wires = append(c.Wires, circuit.Wire{ID: uw.ID, Pins: points(uw.Pins)})
	}
	if err == nil {
		_, err = s.UploadCircuit(c)
	}
	doc := circuitDoc{Name: c.Name}
	if err == nil {
		// Nil when evicted between upload and render; the upload itself
		// succeeded.
		if sc := s.lookupServed(c.Name); sc != nil {
			doc = s.circuitDocFor(sc)
			sc.inflight.Done()
		}
	}
	s.reply(w, http.StatusCreated, doc, err, "")
}

func (s *Server) handleCircuitEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.reply(w, http.StatusOK, map[string]string{"evicted": name}, s.EvictCircuit(name), "")
}

// mutateBody is the POST /v1/mutate request document.
type mutateBody struct {
	Circuit string         `json:"circuit"`
	Ops     []mutateOpBody `json:"ops"`
}

type mutateOpBody struct {
	// Op is "add", "remove" or "reroute" (opKind).
	Op   string   `json:"op"`
	Wire int      `json:"wire"`
	Pins [][2]int `json:"pins,omitempty"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var body mutateBody
	err := readBody(w, r, &body)
	req := MutateRequest{Circuit: body.Circuit}
	for _, ob := range body.Ops {
		kind, kerr := opKind(ob.Op)
		err = cmp.Or(err, kerr)
		req.Ops = append(req.Ops, store.Op{Kind: kind, WireID: ob.Wire, Pins: points(ob.Pins)})
	}
	var resp *MutateResponse
	if err == nil {
		resp, err = s.Mutate(req)
	}
	s.reply(w, http.StatusOK, resp, err, "")
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

// writeJSON writes one JSON document with the right headers; error paths
// that owe the client a Retry-After set it before calling (reply).
func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
