package harness

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestPercentileEdges pins nearest-rank values and the
// ten-samples-beyond rule at the sample sizes where they bite.
func TestPercentileEdges(t *testing.T) {
	cases := []struct {
		n, pct    int
		want      float64
		supported bool
	}{
		{1, 50, 1, true},
		{1, 90, 1, false}, // nothing beyond it
		{2, 50, 1, true},  // lower middle: rank ceil(0.5*2) = 1
		{2, 99, 2, false},
		{100, 50, 50, true},
		{100, 90, 90, true},   // exactly ten samples beyond
		{100, 91, 91, false},  // nine beyond
		{100, 99, 99, false},  // one beyond
		{1000, 99, 990, true}, // ten beyond
		{4, 90, 4, false},     // paper_sim's case: the max, flagged
	}
	for _, c := range cases {
		got, ok := Percentile(seq(c.n), c.pct)
		if got != c.want || ok != c.supported {
			t.Errorf("Percentile(1..%d, %d) = %v, %v; want %v, %v", c.n, c.pct, got, ok, c.want, c.supported)
		}
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("Percentile of no samples reported as supported")
	}
}

// TestQuartilesMatchPython compares against statistics.quantiles(v, n=4)
// outputs computed with Python 3, the arithmetic the pipeline uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 9, 4, 4, 7.25, 1, 30}, [3]float64{2.5, 4, 9}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, med, q3 := Quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if q1, _, _ := Quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("Quartiles(nil) = %v, want NaN", q1)
	}
}

// TestMedianOfRounds: a latency metric is the median over rounds of the
// round's percentile, so one stalled round does not move it, and rounds
// that completed nothing are left out rather than counted as zero.
func TestMedianOfRounds(t *testing.T) {
	rec := &Recording{Rounds: []Round{
		{OK: 3, LatUS: []float64{10, 11, 12}},
		{OK: 3, LatUS: []float64{10, 12, 14}},
		{}, // a long op spanned this boundary
		{OK: 3, LatUS: []float64{900, 1000, 1100}}, // the stall
		{OK: 3, LatUS: []float64{9, 10, 11}},
	}}
	vals := rec.PerRound(func(r Round) float64 {
		v, _ := Percentile(Sorted(r.LatUS), 50)
		return v
	})
	if len(vals) != 4 {
		t.Fatalf("PerRound kept %d rounds, want 4 (the empty one dropped)", len(vals))
	}
	m := Summarise("us", vals)
	if m.Value != 11.5 || m.N != 4 {
		t.Errorf("median of rounds = %v over %d, want 11.5 over 4", m.Value, m.N)
	}
}
