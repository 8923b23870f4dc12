package locusd

import (
	"encoding/json"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"locusroute/internal/obs"
	"locusroute/internal/reqtrace"
)

// metrics aggregates service counters and latency/batch histograms.
// obs.Histogram is single-writer; the mutex makes it safe under
// concurrent handlers. The request path takes it once per request and
// touches fields only; metricsList is the one place that names them.
type metrics struct {
	mu        sync.Mutex
	served    int64
	shed      int64
	evicted   int64 // shed by criticality preemption (subset of shed)
	expired   int64
	rejected  int64 // validation failures
	denied    int64 // policy-chain rejections (deadline/rate/breaker)
	cacheHits int64
	committed int64
	uploads   int64 // circuits uploaded at runtime
	evictions int64 // circuits evicted at runtime
	mutations int64 // mutation ops applied (not batches)
	// The shard loops' own account: batches evaluated and the wall time
	// spent on them — with served, RetryAfterSeconds' mean service time.
	batches   int64
	evalNs    int64
	batchSize obs.Histogram
	waitUs    obs.Histogram
	routeCost obs.Histogram
	// stageUs are the per-stage latency histograms (microseconds), fed
	// only for traced requests; a stage that did not run observes
	// nothing.
	stageUs [reqtrace.NumStages]obs.Histogram
}

// metric is one entry of the server's metrics list: its /debug/vars key,
// its /v1/metrics series, and its value. Both documents render from the
// list alone, in its order; an empty key or name leaves the entry out of
// that document.
type metric struct {
	key, name, help string
	kind            string // the series' TYPE: counter, gauge or histogram
	v               int64
	hist            *obs.HistogramDoc // kind histogram: nil until the first sample
	labels          []obs.Label
	// doc is the /debug/vars value where it is not v (or hist).
	doc any
}

// metricsList snapshots every metric the server exports, in /debug/vars
// order. The policy elements' counters come from their own Counters lists
// (one locusd_policy_<counter>{element="<name>"} series each), the
// tracer's from its Stats.
func (s *Server) metricsList() []metric {
	uptime := time.Since(s.started).Milliseconds()
	draining, drainingFlag := int64(0), s.Draining()
	if drainingFlag {
		draining = 1
	}
	bi := buildInfo()
	tr := s.cfg.Tracer
	st := tr.Stats()
	var elements []elementVarsDoc
	var policyRows []metric
	for _, el := range s.chain.Elements() {
		ev := elementVarsDoc{Element: el.Name()}
		label := []obs.Label{{Name: "element", Value: el.Name()}}
		for _, c := range el.Counters() {
			ev.Counters = append(ev.Counters, counterDoc{Name: c.Name, Value: c.Value})
			kind := "gauge"
			if strings.HasSuffix(c.Name, "_total") {
				kind = "counter"
			}
			// Elements share counter names (the label tells the series
			// apart), so a name's help is its first element's: PromText
			// writes one HELP/TYPE pair per name.
			policyRows = append(policyRows, metric{name: "locusd_policy_" + c.Name, help: c.Help, kind: kind, v: c.Value, labels: label})
		}
		elements = append(elements, ev)
	}
	m := &s.met
	m.mu.Lock()
	defer m.mu.Unlock()
	list := []metric{
		{key: "build", name: "locusd_build_info", help: "build metadata as labels, value always 1", kind: "gauge", v: 1, doc: bi,
			labels: []obs.Label{{Name: "go_version", Value: bi.GoVersion}, {Name: "revision", Value: bi.Revision}}},
		{key: "start_unix", name: "locusd_start_time_seconds", help: "unix time the process started serving", kind: "gauge", v: s.started.Unix()},
		{key: "uptime_ms", name: "locusd_uptime_seconds", help: "seconds since the process started serving", kind: "gauge", v: uptime / 1000, doc: uptime},
		{key: "draining", name: "locusd_draining", help: "1 while the server is draining (refusing new work)", kind: "gauge", v: draining, doc: drainingFlag},
		{key: "in_flight", name: "locusd_in_flight", help: "admitted requests currently in flight", kind: "gauge", v: int64(s.InFlight())},
		{key: "capacity", name: "locusd_capacity", help: "admission gate capacity", kind: "gauge", v: int64(s.cfg.MaxInFlight)},
		{key: "served", name: "locusd_requests_served_total", help: "wire evaluations completed", kind: "counter", v: m.served},
		{key: "committed", name: "locusd_requests_committed_total", help: "evaluations committed to a circuit's serving array", kind: "counter", v: m.committed},
		{key: "shed", name: "locusd_requests_shed_total", help: "requests shed with 429 at the admission gate", kind: "counter", v: m.shed},
		{key: "evicted", name: "locusd_requests_evicted_total", help: "queued requests shed for more critical arrivals", kind: "counter", v: m.evicted},
		{key: "expired", name: "locusd_requests_expired_total", help: "requests whose deadline expired before evaluation", kind: "counter", v: m.expired},
		{key: "rejected", name: "locusd_requests_rejected_total", help: "requests rejected by validation", kind: "counter", v: m.rejected},
		{key: "denied", name: "locusd_requests_denied_total", help: "requests denied by the policy chain", kind: "counter", v: m.denied},
		{key: "cache_hits", name: "locusd_cache_hits_total", help: "requests answered from the result cache", kind: "counter", v: m.cacheHits},
		{key: "uploads", name: "locusd_circuit_uploads_total", help: "circuits uploaded at runtime", kind: "counter", v: m.uploads},
		{key: "evictions", name: "locusd_circuit_evictions_total", help: "circuits evicted at runtime", kind: "counter", v: m.evictions},
		{key: "mutations", name: "locusd_mutations_total", help: "mutation ops applied to served circuits", kind: "counter", v: m.mutations},
		{key: "batches", name: "locusd_batches_total", help: "batches evaluated by the shard loops", kind: "counter", v: m.batches},
		// Over uptime × evaluators this is shard utilisation, over served
		// the mean service time Retry-After is derived from.
		{key: "eval_us", name: "locusd_eval_us_total", help: "microseconds the shard loops spent evaluating batches", kind: "counter", v: m.evalNs / 1e3},
	}
	if elements != nil {
		list = append(list, metric{key: "policy", doc: elements})
	}
	list = append(list, policyRows...)
	list = append(list,
		metric{key: "batch_size", name: "locusd_batch_size", help: "wires per evaluated batch", kind: "histogram", hist: m.batchSize.Doc()},
		metric{key: "wait_us", name: "locusd_wait_us", help: "microseconds from admission to evaluation", kind: "histogram", hist: m.waitUs.Doc()},
		metric{key: "route_cost", name: "locusd_route_cost", help: "chosen path cost per evaluation", kind: "histogram", hist: m.routeCost.Doc()})
	if tr == nil {
		return list
	}
	list = append(list,
		metric{key: "trace", doc: st},
		metric{name: "locusd_trace_finished_total", help: "requests that completed a trace span", kind: "counter", v: int64(st.Finished)},
		metric{name: "locusd_trace_slow_total", help: "slow-request log lines emitted", kind: "counter", v: int64(st.Slow)},
		metric{name: "locusd_trace_dropped_total", help: "trace records overwritten in the ring", kind: "counter", v: int64(st.Dropped)},
		metric{name: "locusd_trace_retained", help: "trace records currently retained", kind: "gauge", v: int64(st.Retained)})
	// Stage histograms share one series name, told apart by the stage
	// label. Microseconds rather than the conventional seconds because
	// obs.Histogram buckets are integer powers of two — exact integer
	// math, same convention as locusd_wait_us.
	stages := map[string]*obs.HistogramDoc{}
	for i := reqtrace.Stage(0); i < reqtrace.NumStages; i++ {
		if d := m.stageUs[i].Doc(); d != nil {
			stages[i.String()] = d
			list = append(list, metric{name: "locusd_stage_us", help: "per-stage request latency in microseconds", kind: "histogram",
				hist: d, labels: []obs.Label{{Name: "stage", Value: i.String()}}})
		}
	}
	if len(stages) > 0 {
		list = append(list, metric{key: "stage_us", doc: stages})
	}
	return list
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

// handleVars renders the metrics list as one JSON object keyed in list
// order; a histogram with no samples yet is left out.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	doc := []byte{'{'}
	for _, m := range s.metricsList() {
		v := m.doc
		switch {
		case m.key == "" || (m.kind == "histogram" && m.hist == nil):
			continue
		case m.kind == "histogram":
			v = m.hist
		case v == nil:
			v = m.v
		}
		val, _ := json.Marshal(v) // ints, bools, strings and docs of them: cannot fail
		if len(doc) > 1 {
			doc = append(doc, ',')
		}
		doc = append(append(append(append(doc, '"'), m.key...), `":`...), val...)
	}
	writeJSON(w, http.StatusOK, json.RawMessage(append(doc, '}')))
}

// handleMetrics renders the metrics list in the Prometheus text
// exposition format through the shared obs.PromText writer.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var pt obs.PromText
	for _, m := range s.metricsList() {
		switch {
		case m.name == "":
		case m.kind == "histogram":
			pt.Histogram(m.name, m.help, m.hist, m.labels...)
		case m.kind == "counter":
			pt.Counter(m.name, m.help, m.v, m.labels...)
		default:
			pt.Gauge(m.name, m.help, m.v, m.labels...)
		}
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = w.Write(pt.Bytes())
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
