package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"locusroute/benchmark/harness"
)

// floors are the absolute changes below which a metric is never called
// worse or better, whatever its relative bound says: 10% of a 50 µs
// latency is inside the clock's own noise. BENCHMARK.json's schema has
// no place for them, so they live here, next to their only reader.
var floors = map[string]float64{
	"p50_us":  20,   // µs
	"setup_s": 0.05, // s
	"rss_mb":  1,    // MB
}

// failFracSlack is how far fail_frac may rise before a comparison fails.
const failFracSlack = 0.001

// Verdicts of one (workload, metric) row.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares a metric's runs on the change against the parent's.
// threshold is the larger of bound × the parent's median and the
// metric's floor. When either side's own spread (interquartile
// distance) exceeds the threshold the row is unresolved — unless every
// run of one side beats every run of the other, which no spread can
// explain away.
func judge(parent, change []float64, lowerBetter bool, bound, floor float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return unresolved
	}
	sign := 1.0
	if !lowerBetter {
		sign = -1 // fold "higher is better" onto "lower is better"
	}
	fold := func(vals []float64) (q1, med, q3, lo, hi float64) {
		f := make([]float64, len(vals))
		for i, v := range vals {
			f[i] = sign * v
		}
		q1, med, q3 = harness.Quartiles(f)
		s := harness.Sorted(f)
		return q1, med, q3, s[0], s[len(s)-1]
	}
	pq1, pmed, pq3, plo, phi := fold(parent)
	cq1, cmed, cq3, clo, chi := fold(change)
	threshold := math.Max(bound*math.Abs(pmed), floor)
	if math.Max(pq3-pq1, cq3-cq1) > threshold {
		switch {
		case chi < plo:
			return better
		case clo > phi && cmed-pmed > threshold:
			return worse
		}
		return unresolved
	}
	switch d := cmed - pmed; {
	case d > threshold:
		return worse
	case -d > threshold:
		return better
	}
	return same
}

// runs is every report of one workload found in a file.
type runs struct {
	values   map[string][]float64 // metric -> one value per run
	failFrac []float64
}

// readReports collects the end-to-end reports in a file of benchmark
// output (any number of runs appended; result lines and anything else
// are skipped). A metric measured by a single run contributes that
// run's per-round quartiles instead, so one run per side still carries
// a spread.
func readReports(path string) (map[string]*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*runs{}
	var reports []harness.Report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var rep harness.Report
		if json.Unmarshal(sc.Bytes(), &rep) != nil || rep.Workload == "" || rep.Traced || len(rep.EndToEnd) == 0 {
			continue
		}
		reports = append(reports, rep)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	count := map[string]int{}
	for _, rep := range reports {
		count[rep.Workload]++
	}
	for _, rep := range reports {
		r := out[rep.Workload]
		if r == nil {
			r = &runs{values: map[string][]float64{}}
			out[rep.Workload] = r
		}
		r.failFrac = append(r.failFrac, rep.FailFrac)
		for name, m := range rep.EndToEnd {
			if count[rep.Workload] == 1 && m.N > 1 {
				r.values[name] = []float64{m.Q1, m.Value, m.Q3}
				continue
			}
			r.values[name] = append(r.values[name], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end reports found", path)
	}
	return out, nil
}

// compareFiles prints one row per (workload, metric) and returns the
// process exit code: 1 when any row is worse or any workload's
// fail_frac rose, else 0.
func compareFiles(parentPath, changePath string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	spec, err := harness.LoadSpec()
	if err != nil {
		return fail(err)
	}
	parent, err := readReports(parentPath)
	if err != nil {
		return fail(err)
	}
	change, err := readReports(changePath)
	if err != nil {
		return fail(err)
	}
	return printComparison(spec, parent, change)
}

func printComparison(spec *harness.Spec, parent, change map[string]*runs) int {
	var workloads []string
	for name := range parent {
		if change[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tdelta\tverdict")
	failed := false
	for _, w := range workloads {
		pr, cr := parent[w], change[w]
		for _, m := range spec.EndToEnd {
			pv, cv := pr.values[m.Name], cr.values[m.Name]
			verdict := judge(pv, cv, m.Better == "lower", m.Bound, floors[m.Name])
			pmed, cmed := harness.Median(pv), harness.Median(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%s\n", w, m.Name, pmed, m.Unit, cmed, m.Unit, (cmed/pmed-1)*100, verdict)
			failed = failed || verdict == worse
		}
		pf, cf := harness.Median(pr.failFrac), harness.Median(cr.failFrac)
		verdict := same
		if cf > pf+failFracSlack {
			verdict, failed = worse, true
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t%.4g\t%.4g\t\t%s\n", w, pf, cf, verdict)
	}
	tw.Flush()
	if failed {
		return 1
	}
	return 0
}
