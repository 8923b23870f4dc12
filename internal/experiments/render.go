package experiments

import (
	"fmt"

	"locusroute/internal/circuit"
)

// TableNames returns the tables `paper -all` regenerates, in print
// order. The robustness sweep is not included (it is far slower than
// everything else combined), nor is the traced critical-path
// comparison (its rows come from event-traced runs; keeping it out of
// -all keeps the golden output byte-identical with tracing off), nor
// the partition sweep (its Time column is real wall clock, which no
// golden output can pin); request any of them by name.
func TableNames() []string {
	return []string{
		"1", "2", "blocking", "mixed", "3", "comparison", "4", "5", "6",
		"locality", "packets", "distribution", "ownership", "network",
		"ordering", "topology",
	}
}

// RobustnessSeeds are the circuit generator seeds the named robustness
// table sweeps.
func RobustnessSeeds() []int64 { return []int64{1, 2, 3, 4, 5} }

// Render regenerates one named table (a TableNames entry, "robustness",
// "critpath", or "partition") and returns its rendered text. bnrE is
// the primary benchmark circuit; mdc joins it for the two-circuit
// locality tables.
func Render(name string, bnrE, mdc *circuit.Circuit, s Setup) (string, error) {
	both := []*circuit.Circuit{bnrE, mdc}
	switch name {
	case "1":
		rows, err := Table1(bnrE, s)
		return render(RenderTable1, rows, err)
	case "2":
		rows, err := Table2(bnrE, s)
		return render(RenderTable2, rows, err)
	case "3":
		rows, err := Table3(bnrE, s)
		return render(RenderTable3, rows, err)
	case "4":
		rows, err := Table4(both, s)
		return render(RenderTable4, rows, err)
	case "5":
		rows, err := Table5(both, s)
		return render(RenderTable5, rows, err)
	case "6":
		rows, err := Table6(bnrE, s)
		return render(RenderTable6, rows, err)
	case "blocking":
		rows, err := Blocking(bnrE, s)
		return render(RenderBlocking, rows, err)
	case "mixed":
		rows, err := Mixed(bnrE, s)
		return render(RenderMixed, rows, err)
	case "locality":
		rows, err := Locality(both, s)
		return render(RenderLocality, rows, err)
	case "comparison":
		rows, err := Comparison(bnrE, s)
		return render(RenderComparison, rows, err)
	case "packets":
		rows, err := PacketStructures(bnrE, s)
		return render(RenderPacketStructures, rows, err)
	case "distribution":
		rows, err := WireDistribution(bnrE, s)
		return render(RenderWireDistribution, rows, err)
	case "ownership":
		rows, err := CostArrayDistribution(bnrE, s)
		return render(RenderCostArrayDistribution, rows, err)
	case "ordering":
		rows, err := WireOrdering(bnrE, s)
		return render(RenderWireOrdering, rows, err)
	case "topology":
		rows, err := Topology(bnrE, s)
		return render(RenderTopology, rows, err)
	case "network":
		rows, err := NetworkSensitivity(bnrE, s)
		return render(RenderNetworkSensitivity, rows, err)
	case "robustness":
		rows, err := Robustness(RobustnessSeeds(), s)
		return render(RenderRobustness, rows, err)
	case "critpath":
		rows, err := CritPath(bnrE, s)
		return render(RenderCritPath, rows, err)
	case "partition":
		rows, err := Partition(bnrE, s, s.Partitions)
		return render(RenderPartition, rows, err)
	default:
		return "", fmt.Errorf("experiments: unknown table %q", name)
	}
}

func render[R any](fn func([]R) string, rows []R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fn(rows), nil
}

// RenderSet regenerates the named tables — each one an independent cell
// running concurrently — and returns the rendered text in name order.
// Observability documents are likewise adopted in name order, so both
// the printed tables and a -json document are byte-identical at every
// pool capacity. A message passing configuration several tables request
// is simulated once (see the package documentation).
func RenderSet(names []string, bnrE, mdc *circuit.Circuit, s Setup) ([]string, error) {
	if s.memo == nil {
		s.memo = &runMemo{}
	}
	return cells(s, names, func(name string, sub Setup) (string, error) {
		return Render(name, bnrE, mdc, sub)
	})
}
