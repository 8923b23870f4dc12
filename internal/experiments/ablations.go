package experiments

import (
	"fmt"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/metrics"
	"locusroute/internal/mp"
)

// --- Ablation: update packet structures (Section 4.3.1) ------------------

// PacketRow is one packet-structure measurement.
type PacketRow struct {
	Structure string
	CktHt     int64
	MBytes    float64
	Packets   int64
	Seconds   float64
}

// PacketStructures compares the paper's chosen bounding-box packet
// structure against the two alternatives it discusses: wire-based
// packets (no rip-up/reroute cancellation) and whole-region packets
// (bytes for unchanged cells). Run with the standard sender initiated
// schedule.
func PacketStructures(c *circuit.Circuit, s Setup) ([]PacketRow, error) {
	structures := []mp.PacketStructure{
		mp.StructureBbox, mp.StructureWireBased, mp.StructureWholeRegion,
	}
	return cells(s, structures, func(structure mp.PacketStructure, sub Setup) (PacketRow, error) {
		cfg := mp.DefaultConfig(mp.StandardStrategy())
		cfg.Procs = sub.Procs
		cfg.Router = sub.routerParams()
		cfg.Packets = structure
		asn, err := sub.assignment(c)
		if err != nil {
			return PacketRow{}, err
		}
		res, err := runConfigured(c, sub, cfg, asn, "packets/"+structure.String())
		if err != nil {
			return PacketRow{}, err
		}
		return PacketRow{
			Structure: structure.String(),
			CktHt:     res.CircuitHeight,
			MBytes:    res.MBytes(),
			Packets:   res.Net.Packets,
			Seconds:   res.Time.Seconds(),
		}, nil
	})
}

// RenderPacketStructures renders the packet structure ablation.
func RenderPacketStructures(rows []PacketRow) string {
	t := metrics.NewTable("Ablation (Section 4.3.1): update packet structures",
		"Structure", "Ckt Ht.", "MBytes Xfrd.", "Packets", "Time (s)")
	for _, r := range rows {
		t.Add(r.Structure, fmt.Sprintf("%d", r.CktHt), fmt.Sprintf("%.3f", r.MBytes),
			fmt.Sprintf("%d", r.Packets), metrics.Seconds(r.Seconds))
	}
	return t.String()
}

// --- Ablation: dynamic vs static wire assignment (Section 4.2) -----------

// DistributionRow is one wire-distribution measurement.
type DistributionRow struct {
	Method  string
	CktHt   int64
	MBytes  float64
	Seconds float64
}

// WireDistribution compares the paper's chosen static assignment against
// the dynamic request/grant scheme it rejects for its distribution
// latency (wire requests are only serviced when the assignment processor
// checks its queue between wires).
func WireDistribution(c *circuit.Circuit, s Setup) ([]DistributionRow, error) {
	return cells(s, []bool{false, true}, func(dynamic bool, sub Setup) (DistributionRow, error) {
		cfg := mp.DefaultConfig(mp.StandardStrategy())
		cfg.Procs = sub.Procs
		cfg.Router = sub.routerParams()
		cfg.DynamicWires = dynamic
		label := "static (ThresholdCost)"
		if dynamic {
			label = "dynamic (request/grant)"
		}
		asn, err := sub.assignment(c)
		if err != nil {
			return DistributionRow{}, err
		}
		res, err := runConfigured(c, sub, cfg, asn, "distribution/"+label)
		if err != nil {
			return DistributionRow{}, err
		}
		return DistributionRow{
			Method:  label,
			CktHt:   res.CircuitHeight,
			MBytes:  res.MBytes(),
			Seconds: res.Time.Seconds(),
		}, nil
	})
}

// RenderWireDistribution renders the wire distribution ablation.
func RenderWireDistribution(rows []DistributionRow) string {
	t := metrics.NewTable("Ablation (Section 4.2): wire distribution",
		"Method", "Ckt Ht.", "MBytes Xfrd.", "Time (s)")
	for _, r := range rows {
		t.Add(r.Method, fmt.Sprintf("%d", r.CktHt),
			fmt.Sprintf("%.3f", r.MBytes), metrics.Seconds(r.Seconds))
	}
	return t.String()
}

// --- Ablation: cost array distribution (Section 4.1) ---------------------

// OwnershipRow is one cost-array-distribution measurement.
type OwnershipRow struct {
	Scheme  string
	CktHt   int64
	MBytes  float64
	Packets int64
	Seconds float64
}

// CostArrayDistribution compares the paper's chosen replicated-view
// design against the strict region ownership scheme it rejects: no
// update traffic at all, but per-region greedy routing, task-passing
// messages, and the load imbalance of region-bound work.
func CostArrayDistribution(c *circuit.Circuit, s Setup) ([]OwnershipRow, error) {
	schemes := []func(Setup) (OwnershipRow, error){
		func(sub Setup) (OwnershipRow, error) {
			chosen := mp.DefaultConfig(mp.StandardStrategy())
			chosen.Procs = sub.Procs
			chosen.Router = sub.routerParams()
			asn, err := sub.assignment(c)
			if err != nil {
				return OwnershipRow{}, err
			}
			res, err := runConfigured(c, sub, chosen, asn, "ownership/replicated views")
			if err != nil {
				return OwnershipRow{}, err
			}
			return OwnershipRow{
				Scheme: "replicated views + updates", CktHt: res.CircuitHeight,
				MBytes: res.MBytes(), Packets: res.Net.Packets, Seconds: res.Time.Seconds(),
			}, nil
		},
		func(sub Setup) (OwnershipRow, error) {
			strict := mp.DefaultConfig(mp.Strategy{})
			strict.Procs = sub.Procs
			strict.Router = sub.routerParams()
			strict.StrictOwnership = true
			part, err := sub.partition(c)
			if err != nil {
				return OwnershipRow{}, err
			}
			asn := assign.AssignThreshold(c, part, assign.ThresholdInfinity)
			res, err := runConfigured(c, sub, strict, asn, "ownership/strict")
			if err != nil {
				return OwnershipRow{}, err
			}
			return OwnershipRow{
				Scheme: "strict region ownership", CktHt: res.CircuitHeight,
				MBytes: res.MBytes(), Packets: res.Net.Packets, Seconds: res.Time.Seconds(),
			}, nil
		},
	}
	return cells(s, schemes, func(fn func(Setup) (OwnershipRow, error), sub Setup) (OwnershipRow, error) {
		return fn(sub)
	})
}

// RenderCostArrayDistribution renders the ownership ablation.
func RenderCostArrayDistribution(rows []OwnershipRow) string {
	t := metrics.NewTable("Ablation (Section 4.1): cost array distribution",
		"Scheme", "Ckt Ht.", "MBytes Xfrd.", "Packets", "Time (s)")
	for _, r := range rows {
		t.Add(r.Scheme, fmt.Sprintf("%d", r.CktHt), fmt.Sprintf("%.3f", r.MBytes),
			fmt.Sprintf("%d", r.Packets), metrics.Seconds(r.Seconds))
	}
	return t.String()
}

// --- Ablation: wire routing order -----------------------------------------

// OrderRow is one wire-ordering measurement.
type OrderRow struct {
	Order   string
	CktHt   int64
	MBytes  float64
	Seconds float64
}

// WireOrdering sweeps the order in which each processor routes its
// assigned wires. The paper routes in circuit order; longest-first is
// the classic router heuristic (place the hard wires while the array is
// empty), shortest-first the adversarial baseline.
func WireOrdering(c *circuit.Circuit, s Setup) ([]OrderRow, error) {
	orders := []assign.WireOrder{
		assign.NaturalOrder, assign.LongestFirst, assign.ShortestFirst,
	}
	return cells(s, orders, func(order assign.WireOrder, sub Setup) (OrderRow, error) {
		asn, err := sub.assignment(c)
		if err != nil {
			return OrderRow{}, err
		}
		asn.Order = order
		r, err := runMPAssigned(c, sub, mp.StandardStrategy(), asn, order.String())
		if err != nil {
			return OrderRow{}, err
		}
		return OrderRow{
			Order: order.String(), CktHt: r.CktHt, MBytes: r.MBytes, Seconds: r.Seconds,
		}, nil
	})
}

// RenderWireOrdering renders the wire ordering ablation.
func RenderWireOrdering(rows []OrderRow) string {
	t := metrics.NewTable("Ablation: per-processor wire routing order",
		"Order", "Ckt Ht.", "MBytes Xfrd.", "Time (s)")
	for _, r := range rows {
		t.Add(r.Order, fmt.Sprintf("%d", r.CktHt),
			fmt.Sprintf("%.3f", r.MBytes), metrics.Seconds(r.Seconds))
	}
	return t.String()
}
