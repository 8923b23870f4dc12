package main

import "testing"

// TestJudge pins the comparison rule: bound and floor together set the
// threshold, direction folds, and a spread wider than the threshold
// makes a row unresolved unless the two sides do not overlap at all.
func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	cases := []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		bound, floor   float64
		want           string
	}{
		{"within bound", steady(1000), steady(1080), true, 0.10, 20, same},
		{"past bound", steady(1000), steady(1150), true, 0.10, 20, worse},
		{"gain", steady(1000), steady(800), true, 0.10, 20, better},
		{"past bound but under floor", steady(50), steady(65), true, 0.10, 20, same},
		{"higher is better, fell", steady(300), steady(250), false, 0.10, 0, worse},
		{"higher is better, rose", steady(300), steady(400), false, 0.10, 0, better},
		{"noisy and overlapping", []float64{800, 1000, 1200, 900, 1100}, []float64{900, 1150, 1300, 1000, 1250}, true, 0.10, 0, unresolved},
		{"noisy but every run better", []float64{800, 1000, 1200, 900, 1100}, []float64{300, 500, 700, 400, 600}, true, 0.10, 0, better},
		{"noisy but every run worse", []float64{800, 1000, 1200, 900, 1100}, []float64{1300, 1500, 1700, 1400, 1600}, true, 0.10, 0, worse},
		{"missing side", nil, steady(1), true, 0.10, 0, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.lowerBetter, c.bound, c.floor); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}
