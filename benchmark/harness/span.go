package harness

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share ID; Parent names the span that caused this one ("" = a root).
type Span struct {
	Name   string
	Layer  string
	ID     string
	Parent string
	Start  time.Time
	Dur    time.Duration
}

// Recorder keeps spans in memory until the benchmark ends; nothing is
// written while measuring. A nil Recorder records nothing, so untraced
// runs pay one nil check per call site.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records one finished span.
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Time runs f inside a root span of the given layer and name — the
// wrapper the layer probes put around each call into a layer.
func (r *Recorder) Time(layer, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.Add(Span{Name: name, Layer: layer, Start: t0, Dur: d})
	return d
}

// Len reports how many spans are held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome writes every span as one Chrome-trace JSON document.
// Each layer gets its own track (tid), timestamps are relative to the
// earliest span, and the request id and parent ride in args.
func (r *Recorder) WriteChrome(w io.Writer) error {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	var origin time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	tracks := map[string]int{}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: []chromeEvent{}}
	for _, s := range spans {
		tid, ok := tracks[s.Layer]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.Layer] = tid
		}
		ev := chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", PID: 1, TID: tid,
			TS: us(s.Start.Sub(origin)), Dur: us(s.Dur),
		}
		if s.ID != "" || s.Parent != "" {
			ev.Args = map[string]string{"id": s.ID, "parent": s.Parent}
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	return json.NewEncoder(w).Encode(doc)
}
