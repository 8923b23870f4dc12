package experiments

import (
	"fmt"

	"locusroute/internal/circuit"
	"locusroute/internal/mp"
	"locusroute/internal/report"
	"locusroute/internal/tracev"
)

// --- Critical-path analysis (tracev consumer) ----------------------------

// CritPathRow is one traced run's critical-path attribution: how the
// run's simulated time splits across categories *on the path that sets
// it*, rather than in aggregate across nodes (which is what the obs
// per-node clocks report).
type CritPathRow struct {
	Label    string
	TotalS   float64
	ComputeS float64
	PacketS  float64
	BlockedS float64
	BarrierS float64
	NetworkS float64
	Hops     int
	Steps    int
}

// critPathTasks returns the configurations the critical-path table
// compares: the Section 5.1.3 blocking/non-blocking pairs, where blocked
// time should appear on the path only for the blocking runs, and the
// Section 4.3.1 packet-structure alternatives, where whole-region
// packets shift path time from compute to packet handling.
func critPathTasks() []critTask {
	var tasks []critTask
	for _, rrd := range []int{5, 10} {
		tasks = append(tasks,
			critTask{label: fmt.Sprintf("RRD=%d non-blocking", rrd), strategy: mp.ReceiverInitiated(1, rrd, false)},
			critTask{label: fmt.Sprintf("RRD=%d blocking", rrd), strategy: mp.ReceiverInitiated(1, rrd, true)})
	}
	for _, structure := range []mp.PacketStructure{
		mp.StructureBbox, mp.StructureWireBased, mp.StructureWholeRegion,
	} {
		tasks = append(tasks, critTask{
			label:    "SI " + structure.String(),
			strategy: mp.StandardStrategy(),
			packets:  structure,
		})
	}
	return tasks
}

type critTask struct {
	label    string
	strategy mp.Strategy
	packets  mp.PacketStructure
}

// CritPath runs each configuration with event tracing and extracts the
// critical path from its trace. Every cell owns a private tracer —
// tracing is confined to one DES run — so the cells fan out through the
// pool like any other table and the rows are deterministic at every
// capacity.
func CritPath(c *circuit.Circuit, s Setup) ([]CritPathRow, error) {
	return cells(s, critPathTasks(), func(t critTask, sub Setup) (CritPathRow, error) {
		cfg := mp.DefaultConfig(t.strategy)
		cfg.Procs = sub.Procs
		cfg.Router = sub.routerParams()
		cfg.Packets = t.packets
		cfg.Trace = tracev.New(0)
		asn, err := sub.assignment(c)
		if err != nil {
			return CritPathRow{}, err
		}
		res, err := runConfigured(c, sub, cfg, asn, "critpath/"+t.label)
		if err != nil {
			return CritPathRow{}, err
		}
		cp := res.CritPath
		return CritPathRow{
			Label:    t.label,
			TotalS:   float64(cp.TotalNs) / 1e9,
			ComputeS: cp.Seconds(tracev.CatCompute),
			PacketS:  cp.Seconds(tracev.CatPacket),
			BlockedS: cp.Seconds(tracev.CatBlocked),
			BarrierS: cp.Seconds(tracev.CatBarrier),
			NetworkS: cp.Seconds(tracev.CatNetwork),
			Hops:     cp.Hops,
			Steps:    len(cp.Steps),
		}, nil
	})
}

// RenderCritPath renders the critical-path comparison.
func RenderCritPath(rows []CritPathRow) string {
	t := report.NewTable("Critical path: where the time that sets the run goes (s on path)",
		"Schedule", "Time (s)", "Compute", "Packet", "Blocked", "Barrier", "Network", "Hops")
	for _, r := range rows {
		t.Add(r.Label,
			report.Seconds(r.TotalS),
			fmt.Sprintf("%.3f", r.ComputeS),
			fmt.Sprintf("%.3f", r.PacketS),
			fmt.Sprintf("%.3f", r.BlockedS),
			fmt.Sprintf("%.3f", r.BarrierS),
			fmt.Sprintf("%.3f", r.NetworkS),
			fmt.Sprintf("%d", r.Hops))
	}
	return t.String()
}
