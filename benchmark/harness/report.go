package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Spec is BENCHMARK.json: the fixed names, units, directions and
// regression bounds every later change is judged by. The benchmark
// reads it rather than repeating it, so the file stays the one place
// those are written down.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one metric's declaration. Bound is the share of the
// parent's median by which the metric may worsen (end-to-end only).
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json from the current directory.
func LoadSpec() (*Spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Report is the full document one workload run prints: where it ran,
// what it checked, and every metric with its sample count, median and
// quartiles over rounds. Runs appended to one file are what -compare
// reads.
type Report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Quick     bool              `json:"quick,omitempty"`
	Env       Env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Checks    []Check           `json:"checks"`
	EndToEnd  map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]Metric `json:"per_layer,omitempty"`
}

// contractValue is one metric of the pipeline's result line.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Emit prints the report as one JSON line, then the pipeline's result
// line — exactly the keys correct, attempted, failed and metrics — as
// the last line. The result line carries every metric declared in decl
// and nothing else; a declared metric that was not measured, or is not
// a finite number, is an error rather than a gap.
func (r *Report) Emit(w io.Writer, decl []MetricSpec) error {
	measured := r.EndToEnd
	if r.Traced {
		measured = r.PerLayer
	}
	metrics := make(map[string]contractValue, len(decl))
	for _, d := range decl {
		m, ok := measured[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured", r.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s has no finite value (n=%d)", r.Workload, d.Name, m.N)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("%s: metric %s measured in %s, declared in %s", r.Workload, d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(r); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// NewReport starts a report from a workload run: identity, outcome
// counts and checks. The caller attaches the metrics.
func NewReport(res *Result, env Env, seed int64, seconds float64, quick bool) *Report {
	r := &Report{
		Workload: res.Workload, Seed: seed, Seconds: seconds, Quick: quick, Env: env,
		Correct: res.Correct(), Attempted: res.Attempted(), Failed: res.Failed(), Checks: res.Checks,
	}
	if r.Attempted > 0 {
		r.FailFrac = float64(r.Failed) / float64(r.Attempted)
	}
	return r
}
