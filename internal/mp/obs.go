package mp

import (
	"locusroute/internal/msg"
	"locusroute/internal/obs"
)

// ObsRun renders a finished run into its "mp-des" observability
// document: the per-node breakdown, network counters and histograms
// from the Result, and its critical path when the run was traced.
func ObsRun(name, circuitName string, cfg Config, res Result) obs.Run {
	r := obs.Run{
		Name:      name,
		Backend:   "mp-des",
		Circuit:   circuitName,
		Procs:     cfg.Procs,
		Quality:   &obs.Quality{CircuitHeight: res.CircuitHeight, Occupancy: res.Occupancy},
		SimTimeNs: int64(res.Time),
		Nodes:     res.Nodes,
		Messages:  kindCounts(res),
		Network: &obs.NetworkDoc{
			Bytes:             res.Net.Bytes,
			Packets:           res.Net.Packets,
			HopBytes:          res.Net.HopBytes,
			SelfPackets:       res.Net.SelfPackets,
			SelfBytes:         res.Net.SelfBytes,
			ContentionDelayNs: int64(res.Net.ContentionDelay),
			TotalLatencyNs:    int64(res.Net.TotalLatency),
			Latency:           res.Net.Latency.Doc(),
			LinkDelay:         res.Net.LinkDelay.Doc(),
			QueueDepth:        res.Net.QueueDepth.Doc(),
		},
	}
	if res.CritPath != nil {
		r.CritPath = CritPathDoc(res.CritPath)
	}
	return r
}

// kindCounts lists per-kind traffic in kind order, skipping kinds with
// no packets, so the JSON is stable (maps would marshal key-sorted by
// string, and kind order reads better).
func kindCounts(res Result) []obs.KindCount {
	var out []obs.KindCount
	for k := msg.KindSendLocData; k <= msg.KindSegDone; k++ {
		if res.PacketsByKind[k] == 0 && res.BytesByKind[k] == 0 {
			continue
		}
		out = append(out, obs.KindCount{
			Kind:    k.String(),
			Packets: res.PacketsByKind[k],
			Bytes:   res.BytesByKind[k],
		})
	}
	return out
}
