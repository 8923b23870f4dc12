package mp

import (
	"locusroute/internal/msg"
	"locusroute/internal/obs"
	"locusroute/internal/tracev"
)

// ObsRun renders a finished run into its "mp-des" observability
// document. The per-node breakdown and network histograms come from
// cfg.Obs (both empty when observability was off); the counters come
// from the Result.
func ObsRun(name, circuitName string, cfg Config, res Result) obs.Run {
	r := obs.Run{
		Name:      name,
		Backend:   "mp-des",
		Circuit:   circuitName,
		Procs:     cfg.Procs,
		Quality:   &obs.Quality{CircuitHeight: res.CircuitHeight, Occupancy: res.Occupancy},
		SimTimeNs: int64(res.Time),
		Nodes:     cfg.Obs.NodeTimes(),
		Messages:  kindCounts(res),
	}
	net := &obs.NetworkDoc{
		Bytes:             res.Net.Bytes,
		Packets:           res.Net.Packets,
		HopBytes:          res.Net.HopBytes,
		SelfPackets:       res.Net.SelfPackets,
		SelfBytes:         res.Net.SelfBytes,
		ContentionDelayNs: int64(res.Net.ContentionDelay),
		TotalLatencyNs:    int64(res.Net.TotalLatency),
	}
	cfg.Obs.NetRecorder().Doc(net)
	r.Network = net
	if cfg.Trace != nil {
		if cp, err := tracev.Analyze(cfg.Trace.Events()); err == nil {
			r.CritPath = CritPathDoc(cp)
		}
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
