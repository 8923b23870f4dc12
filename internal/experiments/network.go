package experiments

import (
	"fmt"

	"locusroute/internal/circuit"
	"locusroute/internal/mesh"
	"locusroute/internal/mp"
	"locusroute/internal/report"
	"locusroute/internal/sim"
)

// NetworkRow is one configuration of the blocking-penalty sweep.
type NetworkRow struct {
	Label       string
	NonBlockSec float64
	BlockSec    float64
	// Penalty is blocking time over non-blocking time (1.0 = free).
	Penalty float64
}

// NetworkSensitivity tests the paper's Section 5.1.3 prediction: "with a
// higher performance interconnection network, lower overhead on message
// reception, and a better heuristic for requesting updates, the blocking
// strategy would probably become more effective."
//
// The sweep separates the prediction's ingredients. Speeding the network
// alone barely moves the penalty — the wait is dominated by the
// responder's service latency (requests are only handled between wires),
// not by transit. The "better heuristic" — requesting updates further in
// advance — is what closes the gap: with enough lookahead the responses
// are already home when the blocking check runs.
//
// Each (configuration, blocking mode) pair is an independent cell; rows
// are assembled from the pairs after the fan-out.
func NetworkSensitivity(c *circuit.Circuit, s Setup) ([]NetworkRow, error) {
	type cfgRow struct {
		label string
		ahead int
		net   mesh.Params
	}
	ametek := mesh.DefaultParams()
	fast := mesh.Params{HopTime: 6 * sim.Nanosecond, ProcessTime: 125 * sim.Nanosecond}
	rows := []cfgRow{
		{"ahead=1, Ametek network", 1, ametek},
		{"ahead=5 (paper), Ametek network", 5, ametek},
		{"ahead=5, 16x faster network", 5, fast},
		{"ahead=20, Ametek network", 20, ametek},
		{"ahead=60, Ametek network", 60, ametek},
	}
	type task struct {
		row      cfgRow
		blocking bool
	}
	var tasks []task
	for _, row := range rows {
		tasks = append(tasks, task{row, false}, task{row, true})
	}
	secs, err := cells(s, tasks, func(t task, sub Setup) (float64, error) {
		cfg := mp.DefaultConfig(mp.ReceiverInitiated(1, 5, t.blocking))
		cfg.Procs = sub.Procs
		cfg.Router = sub.routerParams()
		cfg.Net = t.row.net
		cfg.RequestAhead = t.row.ahead
		mode := "non-blocking"
		if t.blocking {
			mode = "blocking"
		}
		asn, err := sub.assignment(c)
		if err != nil {
			return 0, err
		}
		res, err := runConfigured(c, sub, cfg, asn, fmt.Sprintf("network/%s, %s", t.row.label, mode))
		if err != nil {
			return 0, err
		}
		return res.Time.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	var out []NetworkRow
	for i, row := range rows {
		nb, bl := secs[2*i], secs[2*i+1]
		out = append(out, NetworkRow{
			Label:       row.label,
			NonBlockSec: nb,
			BlockSec:    bl,
			Penalty:     bl / nb,
		})
	}
	return out, nil
}

// RenderNetworkSensitivity renders the blocking-penalty sweep.
func RenderNetworkSensitivity(rows []NetworkRow) string {
	t := report.NewTable(
		"Section 5.1.3 prediction: what shrinks the blocking penalty (RLD=1 RRD=5)",
		"Configuration", "Non-blocking (s)", "Blocking (s)", "Penalty")
	for _, r := range rows {
		t.Add(r.Label, report.Seconds(r.NonBlockSec), report.Seconds(r.BlockSec),
			report.Ratio(r.Penalty))
	}
	return t.String()
}

// TopologyRow is one interconnect-shape measurement.
type TopologyRow struct {
	Label      string
	CktHt      int64
	MBytes     float64
	Seconds    float64
	Contention float64 // total head blocking, seconds
}

// Topology runs the same 16-processor workload over different k-ary
// n-cube shapes — CBS's general form. The cost array partition (and so
// the protocol's behaviour) is identical; only transport latency and
// contention change. The hypercube's shorter diameter and extra links
// reduce contention; the ring concentrates everything on few links.
func Topology(c *circuit.Circuit, s Setup) ([]TopologyRow, error) {
	type shape struct {
		label string
		dims  []int
	}
	shapes := []shape{
		{"2-D mesh (paper)", nil}, // default squarest 2-D network
		{"ring", []int{s.Procs}},
	}
	// A binary hypercube exists when the processor count is a power of
	// two.
	if s.Procs&(s.Procs-1) == 0 && s.Procs > 1 {
		var dims []int
		for n := s.Procs; n > 1; n /= 2 {
			dims = append(dims, 2)
		}
		shapes = append(shapes, shape{"binary hypercube", dims})
	}
	return cells(s, shapes, func(sh shape, sub Setup) (TopologyRow, error) {
		cfg := mp.DefaultConfig(mp.StandardStrategy())
		cfg.Procs = sub.Procs
		cfg.Router = sub.routerParams()
		cfg.Topology = sh.dims
		asn, err := sub.assignment(c)
		if err != nil {
			return TopologyRow{}, err
		}
		res, err := runConfigured(c, sub, cfg, asn, "topology/"+sh.label)
		if err != nil {
			return TopologyRow{}, err
		}
		return TopologyRow{
			Label:      sh.label,
			CktHt:      res.CircuitHeight,
			MBytes:     res.MBytes(),
			Seconds:    res.Time.Seconds(),
			Contention: res.Net.ContentionDelay.Seconds(),
		}, nil
	})
}

// RenderTopology renders the interconnect-shape sweep.
func RenderTopology(rows []TopologyRow) string {
	t := report.NewTable("Extension: interconnect topology (k-ary n-cube shapes, 16 processors)",
		"Topology", "Ckt Ht.", "MBytes Xfrd.", "Time (s)", "Contention (s)")
	for _, r := range rows {
		t.Add(r.Label, fmt.Sprintf("%d", r.CktHt), fmt.Sprintf("%.3f", r.MBytes),
			report.Seconds(r.Seconds), fmt.Sprintf("%.6f", r.Contention))
	}
	return t.String()
}
