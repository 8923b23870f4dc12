package sm

import "locusroute/internal/obs"

// ObsRun renders a finished shared memory run into its "sm-traced"
// observability document: virtual makespan and trace counters. Cache
// traffic documents are attached later by whoever replays the trace
// through the coherence simulator.
func ObsRun(name, circuitName string, cfg Config, res Result) obs.Run {
	r := obs.Run{
		Name:      name,
		Backend:   "sm-traced",
		Circuit:   circuitName,
		Procs:     cfg.Procs,
		Quality:   &obs.Quality{CircuitHeight: res.CircuitHeight, Occupancy: res.Occupancy},
		SimTimeNs: int64(res.Span),
	}
	if res.Reads+res.Writes > 0 {
		r.Trace = &obs.TraceDoc{
			Reads:  int64(res.Reads),
			Writes: int64(res.Writes),
			Refs:   int64(res.Reads + res.Writes),
		}
	}
	return r
}
