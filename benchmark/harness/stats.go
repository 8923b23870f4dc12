// Package harness is the measuring instrument shared by the repository
// benchmark (benchmark/) and its per-layer probes (benchmark/layers):
// percentile and quartile arithmetic, the open- and closed-loop load
// drivers, child-process and temp-dir management, the span recorder,
// and the four workloads themselves.
//
// The package reaches the system under test only through its outermost
// surfaces — the built cmd/ binaries, HTTP /v1, the internal/wire
// client and pkg/locusroute — so refactors below those surfaces cannot
// break the end-to-end gate's build.
package harness

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank pct-th percentile (pct in 1..100)
// of sorted, and whether the sample supports it: the median is always
// supported, a tail percentile only when at least ten samples lie
// beyond it (the choosing-metrics rule). An unsupported percentile
// still carries its nearest-rank value so callers that must print a
// number can, flagged. Integer rank arithmetic keeps n = 100, pct = 90
// on the right side of the rule where float math would not.
func Percentile(sorted []float64, pct int) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (pct*n + 99) / 100 // ceil(pct*n/100), 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], pct <= 50 || n-rank >= 10
}

// Sorted returns an ascending copy of vals.
func Sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// Quartiles returns the first quartile, median and third quartile of
// vals the way Python's statistics.quantiles(vals, n=4) does (the
// exclusive method), so a spread computed here equals the one the
// pipeline computes. One value is its own three quartiles; none gives
// NaNs.
func Quartiles(vals []float64) (q1, med, q3 float64) {
	s := Sorted(vals)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the middle quartile of vals.
func Median(vals []float64) float64 {
	_, med, _ := Quartiles(vals)
	return med
}

// Mean returns the arithmetic mean of vals (NaN when empty).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Metric is one named measurement in a report: its unit, how many
// per-round (or per-repetition) values it summarises, and their median
// and quartiles. Value is what the contract line prints — the median.
// Unsupported marks a tail percentile whose sample was too small for
// the ten-samples-beyond rule; Exact marks a count that must repeat
// bit-for-bit on the same seed.
type Metric struct {
	Unit        string  `json:"unit"`
	N           int     `json:"n"`
	Value       float64 `json:"median"`
	Q1          float64 `json:"q1"`
	Q3          float64 `json:"q3"`
	Unsupported bool    `json:"unsupported,omitempty"`
	Exact       bool    `json:"exact,omitempty"`
}

// Summarise folds per-round values into a Metric.
func Summarise(unit string, vals []float64) Metric {
	q1, med, q3 := Quartiles(vals)
	return Metric{Unit: unit, N: len(vals), Value: med, Q1: q1, Q3: q3}
}

// Single is a Metric holding one measured value.
func Single(unit string, v float64) Metric {
	return Metric{Unit: unit, N: 1, Value: v, Q1: v, Q3: v}
}

// Count is an exact count: it must repeat bit-for-bit on the same seed.
func Count(unit string, v float64) Metric {
	m := Single(unit, v)
	m.Exact = true
	return m
}
