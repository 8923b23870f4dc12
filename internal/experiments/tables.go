package experiments

import (
	"fmt"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/mp"
	"locusroute/internal/report"
	"locusroute/internal/sm"
)

// --- Table 1: network traffic using sender initiated updates ------------

// Table1Schedules are the (SendRmtData, SendLocData) pairs of Table 1.
func Table1Schedules() []mp.Strategy {
	var out []mp.Strategy
	for _, srd := range []int{2, 5, 10} {
		for _, sld := range []int{1, 5, 10, 20} {
			out = append(out, mp.SenderInitiated(srd, sld))
		}
	}
	return out
}

// mpSweep routes one cell per strategy concurrently and merges the rows
// in schedule order.
func mpSweep(c *circuit.Circuit, s Setup, schedules []mp.Strategy, label func(mp.Strategy) string) ([]MPRow, error) {
	return cells(s, schedules, func(st mp.Strategy, sub Setup) (MPRow, error) {
		return runMP(c, sub, st, label(st))
	})
}

// Table1 sweeps the sender initiated update frequencies on circuit c.
func Table1(c *circuit.Circuit, s Setup) ([]MPRow, error) {
	return mpSweep(c, s, Table1Schedules(), func(st mp.Strategy) string {
		return fmt.Sprintf("SRD=%d SLD=%d", st.SendRmtData, st.SendLocData)
	})
}

// RenderTable1 renders Table 1.
func RenderTable1(rows []MPRow) string {
	return renderMPTable("Table 1: network traffic using sender initiated updates", rows)
}

// --- Table 2: non-blocking receiver initiated updates -------------------

// Table2Schedules are the (ReqLocData, ReqRmtData) pairs of Table 2.
func Table2Schedules() []mp.Strategy {
	var out []mp.Strategy
	for _, rld := range []int{1, 2, 10} {
		for _, rrd := range []int{5, 10, 30} {
			out = append(out, mp.ReceiverInitiated(rld, rrd, false))
		}
	}
	return out
}

// Table2 sweeps the non-blocking receiver initiated update frequencies.
func Table2(c *circuit.Circuit, s Setup) ([]MPRow, error) {
	return mpSweep(c, s, Table2Schedules(), func(st mp.Strategy) string {
		return fmt.Sprintf("RLD=%d RRD=%d", st.ReqLocData, st.ReqRmtData)
	})
}

// RenderTable2 renders Table 2.
func RenderTable2(rows []MPRow) string {
	return renderMPTable("Table 2: traffic using non-blocking receiver initiated updates", rows)
}

// --- Section 5.1.3: blocking vs non-blocking and mixed schedules --------

// Blocking compares blocking against non-blocking receiver initiated
// runs on the same schedules: quality is expected to be about the same
// while blocking execution time is substantially larger.
func Blocking(c *circuit.Circuit, s Setup) ([]MPRow, error) {
	type task struct {
		st    mp.Strategy
		label string
	}
	var tasks []task
	for _, rrd := range []int{5, 10} {
		tasks = append(tasks,
			task{mp.ReceiverInitiated(1, rrd, false), fmt.Sprintf("RRD=%d non-blocking", rrd)},
			task{mp.ReceiverInitiated(1, rrd, true), fmt.Sprintf("RRD=%d blocking", rrd)})
	}
	return cells(s, tasks, func(t task, sub Setup) (MPRow, error) {
		return runMP(c, sub, t.st, t.label)
	})
}

// RenderBlocking renders the blocking comparison.
func RenderBlocking(rows []MPRow) string {
	return renderMPTable("Section 5.1.3: blocking vs non-blocking receiver initiated", rows)
}

// MixedSchedule is the paper's example mixed schedule: SendLocData = 5,
// SendRmtData = 2, ReqLocData = 1, ReqRmtData = 5.
func MixedSchedule() mp.Strategy {
	return mp.Strategy{SendLocData: 5, SendRmtData: 2, ReqLocData: 1, ReqRmtData: 5}
}

// Mixed runs the paper's mixed schedule alongside the pure schemes it is
// compared against in Section 5.1.3: the most frequent sender initiated
// schedule (whose traffic it roughly halves) and the matching receiver
// initiated schedule.
func Mixed(c *circuit.Circuit, s Setup) ([]MPRow, error) {
	type task struct {
		st    mp.Strategy
		label string
	}
	tasks := []task{
		{mp.SenderInitiated(2, 1), "pure sender SRD=2 SLD=1"},
		{mp.ReceiverInitiated(1, 5, false), "pure receiver RLD=1 RRD=5"},
		{MixedSchedule(), "mixed SLD=5 SRD=2 RLD=1 RRD=5"},
	}
	return cells(s, tasks, func(t task, sub Setup) (MPRow, error) {
		return runMP(c, sub, t.st, t.label)
	})
}

// RenderMixed renders the mixed-schedule comparison.
func RenderMixed(rows []MPRow) string {
	return renderMPTable("Section 5.1.3: mixed update schedules", rows)
}

// --- Table 3: shared memory traffic as a function of cache line size ----

// Table3Row is one line-size measurement of the shared memory version.
type Table3Row struct {
	Circuit  string
	LineSize int
	MBytes   float64
	CktHt    int64
	// WriteFraction is the fraction of bytes attributable to writes
	// (word writes, writebacks, invalidation refetches); the paper
	// reports over 80%.
	WriteFraction float64
}

// Table3LineSizes are the cache line sizes of Table 3.
func Table3LineSizes() []int { return []int{4, 8, 16, 32} }

// Table3 measures shared memory bus traffic at each line size, using the
// paper's default dynamic (distributed loop) wire distribution. One
// traced routing feeds the four simulators in a single pass.
func Table3(c *circuit.Circuit, s Setup) ([]Table3Row, error) {
	res, sims, err := smTraffic(c, s, sm.Dynamic, nil, "table3", Table3LineSizes(), Table3LineSizes()...)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, sim := range sims {
		rows = append(rows, Table3Row{
			Circuit:       c.Name,
			LineSize:      sim.LineSize(),
			MBytes:        sim.Traffic().MBytes(),
			CktHt:         res.CircuitHeight,
			WriteFraction: sim.AttributedWriteFraction(),
		})
	}
	return rows, nil
}

// RenderTable3 renders Table 3.
func RenderTable3(rows []Table3Row) string {
	t := report.NewTable("Table 3: traffic as a function of cache line size (shared memory)",
		"Circuit", "Cache Line Size", "MBytes Transferred", "Write Fraction")
	for _, r := range rows {
		t.Add(r.Circuit, fmt.Sprintf("%d", r.LineSize),
			fmt.Sprintf("%.3f", r.MBytes), fmt.Sprintf("%.0f%%", r.WriteFraction*100))
	}
	return t.String()
}

// --- Tables 4 and 5: effect of locality ---------------------------------

// AssignmentMethod is one row of the locality tables.
type AssignmentMethod struct {
	Label     string
	Threshold int // -1 marks round robin
}

// LocalityMethods are the four assignment methods of Tables 4 and 5.
func LocalityMethods() []AssignmentMethod {
	return []AssignmentMethod{
		{Label: "round robin", Threshold: -1},
		{Label: "ThresholdCost = 30", Threshold: 30},
		{Label: "ThresholdCost = 1000", Threshold: assign.ThresholdStandard},
		{Label: "ThresholdCost = inf.", Threshold: assign.ThresholdInfinity},
	}
}

func (m AssignmentMethod) build(c *circuit.Circuit, s Setup) (*assign.Assignment, error) {
	part, err := s.partition(c)
	if err != nil {
		return nil, err
	}
	if m.Threshold < 0 {
		return assign.AssignRoundRobin(c, part), nil
	}
	return assign.AssignThreshold(c, part, m.Threshold), nil
}

// localityCell is one circuit×method cell of Tables 4, 5 and the
// locality measure.
type localityCell struct {
	c *circuit.Circuit
	m AssignmentMethod
}

func localityCells(circuits []*circuit.Circuit) []localityCell {
	var out []localityCell
	for _, c := range circuits {
		for _, m := range LocalityMethods() {
			out = append(out, localityCell{c: c, m: m})
		}
	}
	return out
}

// Table4Row is one message passing locality measurement.
type Table4Row struct {
	Circuit string
	Method  string
	CktHt   int64
	MBytes  float64
	Seconds float64
}

// Table4 measures the effect of wire assignment locality on the message
// passing version (sender initiated).
func Table4(circuits []*circuit.Circuit, s Setup) ([]Table4Row, error) {
	return cells(s, localityCells(circuits), func(t localityCell, sub Setup) (Table4Row, error) {
		asn, err := t.m.build(t.c, sub)
		if err != nil {
			return Table4Row{}, err
		}
		r, err := runMPAssigned(t.c, sub, mp.StandardStrategy(), asn, t.m.Label)
		if err != nil {
			return Table4Row{}, err
		}
		return Table4Row{
			Circuit: t.c.Name, Method: t.m.Label,
			CktHt: r.CktHt, MBytes: r.MBytes, Seconds: r.Seconds,
		}, nil
	})
}

// RenderTable4 renders Table 4.
func RenderTable4(rows []Table4Row) string {
	t := report.NewTable("Table 4: effect of locality (message passing, sender initiated)",
		"Ckt.", "Asmt. Method", "Ckt. Ht.", "MBytes Xfrd.", "Time (s)")
	for _, r := range rows {
		t.Add(r.Circuit, r.Method, fmt.Sprintf("%d", r.CktHt),
			fmt.Sprintf("%.3f", r.MBytes), report.Seconds(r.Seconds))
	}
	return t.String()
}

// Table5Row is one shared memory locality measurement.
type Table5Row struct {
	Circuit string
	Method  string
	CktHt   int64
	MBytes  float64
}

// Table5LineSize is the cache line size Table 5 reports (8 bytes).
const Table5LineSize = 8

// Table5 measures the effect of wire assignment locality on the shared
// memory version: static assignments replace the distributed loop, and
// traffic comes from the coherence simulator at 8-byte lines.
func Table5(circuits []*circuit.Circuit, s Setup) ([]Table5Row, error) {
	return cells(s, localityCells(circuits), func(t localityCell, sub Setup) (Table5Row, error) {
		asn, err := t.m.build(t.c, sub)
		if err != nil {
			return Table5Row{}, err
		}
		res, sims, err := smTraffic(t.c, sub, sm.Static, asn, "table5/"+t.m.Label, []int{Table5LineSize}, Table5LineSize)
		if err != nil {
			return Table5Row{}, err
		}
		return Table5Row{
			Circuit: t.c.Name, Method: t.m.Label,
			CktHt:  res.CircuitHeight,
			MBytes: sims[0].Traffic().MBytes(),
		}, nil
	})
}

// RenderTable5 renders Table 5.
func RenderTable5(rows []Table5Row) string {
	t := report.NewTable("Table 5: effect of locality (shared memory, 8-byte lines)",
		"Ckt.", "Asmt. Method", "Ckt. Height", "MBytes Xfrd.")
	for _, r := range rows {
		t.Add(r.Circuit, r.Method, fmt.Sprintf("%d", r.CktHt), fmt.Sprintf("%.3f", r.MBytes))
	}
	return t.String()
}

// --- Table 6: effect of the number of processors -------------------------

// Table6Row is one processor-count measurement.
type Table6Row struct {
	Circuit   string
	Procs     int
	CktHt     int64
	Occupancy int64
	MBytes    float64
	Seconds   float64
	// Speedup is computed the paper's way: relative to the two-processor
	// run, multiplied by two.
	Speedup float64
}

// Table6Procs are the processor counts of Table 6.
func Table6Procs() []int { return []int{2, 4, 9, 16} }

// Table6 measures quality, traffic and time as the processor count grows
// (sender initiated schedule, locality assignment rebuilt per count).
// Speedups are derived after the fan-out from the two-processor row.
func Table6(c *circuit.Circuit, s Setup) ([]Table6Row, error) {
	rows, err := cells(s, Table6Procs(), func(procs int, sub Setup) (Table6Row, error) {
		sub.Procs = procs
		r, err := runMP(c, sub, mp.StandardStrategy(), fmt.Sprintf("%d procs", procs))
		if err != nil {
			return Table6Row{}, err
		}
		return Table6Row{
			Circuit: c.Name, Procs: procs,
			CktHt: r.CktHt, Occupancy: r.Occupancy,
			MBytes: r.MBytes, Seconds: r.Seconds,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var base float64
	for i := range rows {
		if rows[i].Procs == 2 {
			base = rows[i].Seconds
		}
		if base > 0 {
			rows[i].Speedup = base / rows[i].Seconds * 2
		}
	}
	return rows, nil
}

// RenderTable6 renders Table 6.
func RenderTable6(rows []Table6Row) string {
	t := report.NewTable("Table 6: effect of number of processors (sender initiated)",
		"Ckt", "Num Procs.", "Ckt. Ht.", "Occup. Factor", "MBytes Xfrd.", "Time (s)", "Speedup")
	for _, r := range rows {
		t.Add(r.Circuit, fmt.Sprintf("%d", r.Procs), fmt.Sprintf("%d", r.CktHt),
			fmt.Sprintf("%d", r.Occupancy), fmt.Sprintf("%.3f", r.MBytes),
			report.Seconds(r.Seconds), report.Ratio(r.Speedup))
	}
	return t.String()
}

// --- Section 5.3.3: the locality measure ---------------------------------

// LocalityRow is one locality-measure computation.
type LocalityRow struct {
	Circuit string
	Method  string
	Measure float64
}

// Locality computes the paper's locality measure (average hops between
// routing processor and owning processor) for each assignment method.
func Locality(circuits []*circuit.Circuit, s Setup) ([]LocalityRow, error) {
	return cells(s, localityCells(circuits), func(t localityCell, sub Setup) (LocalityRow, error) {
		part, err := sub.partition(t.c)
		if err != nil {
			return LocalityRow{}, err
		}
		asn, err := t.m.build(t.c, sub)
		if err != nil {
			return LocalityRow{}, err
		}
		return LocalityRow{
			Circuit: t.c.Name, Method: t.m.Label,
			Measure: assign.LocalityMeasure(t.c, part, asn),
		}, nil
	})
}

// RenderLocality renders the locality measure table.
func RenderLocality(rows []LocalityRow) string {
	t := report.NewTable("Section 5.3.3: locality measure (avg hops from router to owner)",
		"Ckt.", "Asmt. Method", "Locality")
	for _, r := range rows {
		t.Add(r.Circuit, r.Method, fmt.Sprintf("%.2f", r.Measure))
	}
	return t.String()
}

// --- Cross-paradigm comparison (Section 5.2) -----------------------------

// ComparisonRow contrasts the paradigms on one circuit.
type ComparisonRow struct {
	Variant string
	CktHt   int64
	MBytes  float64
}

// Comparison reproduces the Section 5.2 traffic/quality comparison:
// shared memory (8-byte lines) vs the best sender initiated and receiver
// initiated message passing schedules. The three variants run
// concurrently as heterogeneous cells. The shared memory run is Table 3's,
// so it simulates Table 3's line sizes and reads the 8-byte one: in a
// RenderSet with both tables it runs once.
func Comparison(c *circuit.Circuit, s Setup) ([]ComparisonRow, error) {
	variants := []func(Setup) (ComparisonRow, error){
		func(sub Setup) (ComparisonRow, error) {
			res, sims, err := smTraffic(c, sub, sm.Dynamic, nil, "comparison/shared memory", Table3LineSizes(), Table5LineSize)
			if err != nil {
				return ComparisonRow{}, err
			}
			return ComparisonRow{
				Variant: "shared memory (8B lines)",
				CktHt:   res.CircuitHeight,
				MBytes:  sims[0].Traffic().MBytes(),
			}, nil
		},
		func(sub Setup) (ComparisonRow, error) {
			r, err := runMP(c, sub, mp.SenderInitiated(2, 5), "sender")
			if err != nil {
				return ComparisonRow{}, err
			}
			return ComparisonRow{Variant: "MP sender initiated (SRD=2 SLD=5)", CktHt: r.CktHt, MBytes: r.MBytes}, nil
		},
		func(sub Setup) (ComparisonRow, error) {
			r, err := runMP(c, sub, mp.ReceiverInitiated(1, 5, false), "receiver")
			if err != nil {
				return ComparisonRow{}, err
			}
			return ComparisonRow{Variant: "MP receiver initiated (RLD=1 RRD=5)", CktHt: r.CktHt, MBytes: r.MBytes}, nil
		},
	}
	return cells(s, variants, func(fn func(Setup) (ComparisonRow, error), sub Setup) (ComparisonRow, error) {
		return fn(sub)
	})
}

// RenderComparison renders the cross-paradigm comparison.
func RenderComparison(rows []ComparisonRow) string {
	t := report.NewTable("Section 5.2: shared memory vs message passing",
		"Variant", "Ckt. Ht.", "MBytes Xfrd.")
	for _, r := range rows {
		t.Add(r.Variant, fmt.Sprintf("%d", r.CktHt), fmt.Sprintf("%.3f", r.MBytes))
	}
	return t.String()
}
