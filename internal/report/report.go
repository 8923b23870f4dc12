// Package report renders results: the aligned text tables and number
// formats every paper table and command report shares, and the analysis
// of a routed cost array — per-channel track usage (the components of
// the circuit height metric), congestion hot spots, and comparisons
// between two routings of the same circuit. The router and the
// simulators produce numbers; this package explains them.
package report

import (
	"fmt"
	"sort"
	"strings"

	"locusroute/internal/costarray"
	"locusroute/internal/geom"
)

// ChannelUsage describes one routing channel of a finished routing.
type ChannelUsage struct {
	Channel int
	// Tracks is the max number of wires through any grid of the channel
	// — the channel's contribution to circuit height.
	Tracks int32
	// PeakX is the grid column where the maximum occurs (first one).
	PeakX int
	// Mean is the average occupancy across the channel.
	Mean float64
	// Utilisation is Mean / Tracks (how evenly the channel is filled).
	Utilisation float64
}

// Analysis summarises a routed cost array.
type Analysis struct {
	Grid     geom.Grid
	Height   int64
	Channels []ChannelUsage
	// HotSpots are the most congested cells, most congested first.
	HotSpots []HotSpot
	// OccupiedCells / TotalCells give the routing density.
	OccupiedCells, TotalCells int
}

// HotSpot is one highly congested cell.
type HotSpot struct {
	At    geom.Point
	Wires int32
}

// Analyze builds the full analysis of a routed cost array; topN bounds
// the hot spot list.
func Analyze(a *costarray.CostArray, topN int) *Analysis {
	if topN <= 0 {
		topN = 10
	}
	g := a.Grid()
	out := &Analysis{Grid: g, Height: a.CircuitHeight(), TotalCells: g.Cells()}

	var spots []HotSpot
	for y := 0; y < g.Channels; y++ {
		row := a.Row(y)
		usage := ChannelUsage{Channel: y}
		var sum int64
		for x, v := range row {
			if v > usage.Tracks {
				usage.Tracks = v
				usage.PeakX = x
			}
			if v != 0 {
				out.OccupiedCells++
				spots = append(spots, HotSpot{At: geom.Pt(x, y), Wires: v})
			}
			sum += int64(v)
		}
		usage.Mean = float64(sum) / float64(g.Grids)
		if usage.Tracks > 0 {
			usage.Utilisation = usage.Mean / float64(usage.Tracks)
		}
		out.Channels = append(out.Channels, usage)
	}

	sort.Slice(spots, func(i, j int) bool {
		if spots[i].Wires != spots[j].Wires {
			return spots[i].Wires > spots[j].Wires
		}
		if spots[i].At.Y != spots[j].At.Y {
			return spots[i].At.Y < spots[j].At.Y
		}
		return spots[i].At.X < spots[j].At.X
	})
	if len(spots) > topN {
		spots = spots[:topN]
	}
	out.HotSpots = spots
	return out
}

// String renders the analysis as text tables.
func (a *Analysis) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit height %d across %d channels; %d of %d cells occupied (%.1f%%)\n\n",
		a.Height, len(a.Channels), a.OccupiedCells, a.TotalCells,
		100*float64(a.OccupiedCells)/float64(a.TotalCells))

	t := NewTable("per-channel routing tracks",
		"Channel", "Tracks", "Peak at", "Mean", "Utilisation")
	for _, ch := range a.Channels {
		t.Add(fmt.Sprintf("%d", ch.Channel), fmt.Sprintf("%d", ch.Tracks),
			fmt.Sprintf("x=%d", ch.PeakX), fmt.Sprintf("%.2f", ch.Mean),
			fmt.Sprintf("%.0f%%", ch.Utilisation*100))
	}
	sb.WriteString(t.String())

	if len(a.HotSpots) > 0 {
		sb.WriteByte('\n')
		h := NewTable("hottest cells", "Cell", "Wires")
		for _, s := range a.HotSpots {
			h.Add(s.At.String(), fmt.Sprintf("%d", s.Wires))
		}
		sb.WriteString(h.String())
	}
	return sb.String()
}

// Delta compares two routings of the same circuit (e.g. two update
// strategies, or sequential vs parallel).
type Delta struct {
	HeightA, HeightB int64
	// ChannelsChanged counts channels whose track count differs.
	ChannelsChanged int
	// CellsChanged counts cells with different occupancy.
	CellsChanged int
}

// Compare builds the difference report between two routed arrays. It
// returns an error if the grids differ.
func Compare(a, b *costarray.CostArray) (Delta, error) {
	if a.Grid() != b.Grid() {
		return Delta{}, fmt.Errorf("report: grids differ: %+v vs %+v", a.Grid(), b.Grid())
	}
	d := Delta{HeightA: a.CircuitHeight(), HeightB: b.CircuitHeight()}
	g := a.Grid()
	for y := 0; y < g.Channels; y++ {
		if a.MaxInRow(y) != b.MaxInRow(y) {
			d.ChannelsChanged++
		}
		ra, rb := a.Row(y), b.Row(y)
		for x := range ra {
			if ra[x] != rb[x] {
				d.CellsChanged++
			}
		}
	}
	return d, nil
}

// String renders the comparison.
func (d Delta) String() string {
	return fmt.Sprintf("height %d vs %d (%+d); %d channels and %d cells differ",
		d.HeightA, d.HeightB, d.HeightB-d.HeightA, d.ChannelsChanged, d.CellsChanged)
}
