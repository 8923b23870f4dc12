package experiments

import (
	"fmt"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/obs"
	"locusroute/internal/part"
	"locusroute/internal/report"
	"locusroute/internal/route"
)

// --- Partition-parallel routing sweep ------------------------------------

// PartitionRow is one configuration of the partition-parallel sweep: a
// partition count (0 labels the sequential baseline), the realised tree
// shape, the boundary-wire cost of that shape, the routing quality, and
// the measured wall clock against the sequential baseline.
type PartitionRow struct {
	Label         string
	Partitions    int
	Depth         int
	BoundaryWires int
	BoundaryFrac  float64
	CktHt         int64
	Occupancy     int64
	WallS         float64
	Speedup       float64
	// RouteHash fingerprints the final cost array (sha256, truncated);
	// equal hashes mean bit-identical routed state. The partitions=1 row
	// always matches the sequential baseline.
	RouteHash string
	// MatchesSeq reports whether the final cost array is bit-identical
	// to the sequential baseline's.
	MatchesSeq bool
}

// Partition sweeps the partition-parallel router over the given leaf
// counts (nil sweeps 1, 2, 4, 8) against the sequential baseline.
// Unlike the simulated tables, the Time column here is real wall clock —
// the rows' quality and hash columns are deterministic, but the timing
// (and therefore the speedup) varies run to run and with the host's
// core count, which is one reason this table stays out of `paper -all`.
// Cells run serially, never through the pool: concurrent cells would
// contend for cores and corrupt each other's wall-clock measurements.
func Partition(c *circuit.Circuit, s Setup, counts []int) ([]PartitionRow, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	params := s.routerParams()

	seqStart := time.Now()
	seqRes, seqArr := route.Sequential(c, params)
	seqWall := time.Since(seqStart).Seconds()
	seqHash := seqArr.Hash()[:12]
	rows := []PartitionRow{{
		Label:      "sequential",
		CktHt:      seqRes.CircuitHeight,
		Occupancy:  seqRes.Occupancy,
		WallS:      seqWall,
		Speedup:    1,
		RouteHash:  seqHash,
		MatchesSeq: true,
	}}
	if s.Obs.Enabled() {
		s.Obs.Append(obs.Run{
			Name: "partition/sequential", Backend: "sequential", Circuit: c.Name, Procs: 1,
			Quality: &obs.Quality{CircuitHeight: seqRes.CircuitHeight, Occupancy: seqRes.Occupancy},
		})
	}

	for _, n := range counts {
		label := fmt.Sprintf("partitioned p=%d", n)
		start := time.Now()
		res, arr, st, err := part.Route(c, params, part.Config{Partitions: n})
		if err != nil {
			return nil, fmt.Errorf("experiments: partition sweep %q: %w", label, err)
		}
		wall := time.Since(start).Seconds()
		rows = append(rows, PartitionRow{
			Label:         label,
			Partitions:    st.Partitions,
			Depth:         st.Depth,
			BoundaryWires: st.BoundaryWires,
			BoundaryFrac:  st.BoundaryFrac(),
			CktHt:         res.CircuitHeight,
			Occupancy:     res.Occupancy,
			WallS:         wall,
			Speedup:       seqWall / wall,
			RouteHash:     arr.Hash()[:12],
			MatchesSeq:    arr.Equal(seqArr),
		})
		if s.Obs.Enabled() {
			s.Obs.Append(obs.Run{
				Name: "partition/" + label, Backend: "partitioned", Circuit: c.Name, Procs: st.Partitions,
				Quality:   &obs.Quality{CircuitHeight: res.CircuitHeight, Occupancy: res.Occupancy},
				Partition: st.Doc(),
			})
		}
	}
	return rows, nil
}

// RenderPartition renders the partition sweep.
func RenderPartition(rows []PartitionRow) string {
	t := report.NewTable("Partition-parallel routing: speedup x tree depth x boundary fraction",
		"Config", "Parts", "Depth", "Bdry Wires", "Bdry Frac", "Ckt Ht.", "Occup.", "Time (s)", "Speedup", "Route Hash", "= Seq")
	for _, r := range rows {
		parts, depth := "-", "-"
		if r.Partitions > 0 {
			parts = fmt.Sprintf("%d", r.Partitions)
			depth = fmt.Sprintf("%d", r.Depth)
		}
		match := "no"
		if r.MatchesSeq {
			match = "yes"
		}
		t.Add(r.Label,
			parts,
			depth,
			fmt.Sprintf("%d", r.BoundaryWires),
			fmt.Sprintf("%.3f", r.BoundaryFrac),
			fmt.Sprintf("%d", r.CktHt),
			fmt.Sprintf("%d", r.Occupancy),
			report.Seconds(r.WallS),
			fmt.Sprintf("%.2fx", r.Speedup),
			r.RouteHash,
			match)
	}
	return t.String()
}
