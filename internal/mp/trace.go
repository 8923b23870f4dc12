package mp

import (
	"fmt"

	"locusroute/internal/msg"
	"locusroute/internal/obs"
	"locusroute/internal/tracev"
)

// ChromeOptions returns the Chrome-export options for an MP run's
// trace: a process label naming the run, and protocol-kind labels on
// send spans (tracev cannot name msg.Kind itself — it sits below msg in
// the import graph).
func ChromeOptions(circuitName string, procs int) tracev.ChromeOptions {
	return tracev.ChromeOptions{
		Process: fmt.Sprintf("mp-des %s x%d", circuitName, procs),
		ArgName: func(k tracev.Kind, arg int64) string {
			if k == tracev.KindSendPacket {
				return msg.Kind(arg).String()
			}
			return ""
		},
	}
}

// CritPathDoc renders an analyzed critical path into its observability
// document section.
func CritPathDoc(cp *tracev.CriticalPath) *obs.CritPathDoc {
	doc := &obs.CritPathDoc{
		TotalNs:    cp.TotalNs,
		ComputeNs:  cp.ByCat[tracev.CatCompute],
		PacketNs:   cp.ByCat[tracev.CatPacket],
		BlockedNs:  cp.ByCat[tracev.CatBlocked],
		BarrierNs:  cp.ByCat[tracev.CatBarrier],
		NetworkNs:  cp.ByCat[tracev.CatNetwork],
		UntracedNs: cp.ByCat[tracev.CatUntraced],
		Hops:       cp.Hops,
		EndNode:    int(cp.EndTrack),
	}
	for _, s := range cp.Steps {
		doc.Steps = append(doc.Steps, obs.CritPathStep{
			Node:     int(s.Track),
			Category: s.Cat.String(),
			FromNs:   s.FromNs,
			ToNs:     s.ToNs,
			Wire:     s.Wire,
			FromNode: int(s.FromTrack),
			Bytes:    s.Bytes,
		})
	}
	return doc
}
