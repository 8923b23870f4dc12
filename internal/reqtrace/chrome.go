package reqtrace

import (
	"fmt"
	"io"
	"sort"

	"locusroute/internal/tracev"
)

// stageKind maps the request stage taxonomy onto tracev's appended
// request-lifecycle kinds, so the Chrome export reuses tracev's writer
// (categories, arg keys, byte-stable timestamps) unchanged.
var stageKind = [NumStages]tracev.Kind{
	StageAdmit:   tracev.KindReqAdmit,
	StageQueue:   tracev.KindReqQueue,
	StageBatch:   tracev.KindReqBatch,
	StageRoute:   tracev.KindReqRoute,
	StageCommit:  tracev.KindReqCommit,
	StageRespond: tracev.KindReqRespond,
}

// WriteChrome renders the retained records finishing within [from, to]
// (tracer-clock ns; to <= 0 means unbounded) as a Chrome trace-event
// JSON document, process "locusd", through tracev's writer. Each record
// becomes one enclosing request span tiled by its non-zero stage
// sub-spans, all carrying the request's minted id as the span arg.
//
// Requests overlap in time, and the Chrome format nests same-track
// B/E spans strictly, so records are assigned to synthetic lane tracks
// greedily (first lane whose previous request ended by this one's
// start). Within a lane spans are therefore disjoint and ascending,
// which keeps every track's events balanced and monotonic — the
// structural property the trace tests and CI pin.
func (t *Tracer) WriteChrome(w io.Writer, from, to int64) error {
	recs := t.Records()
	sel := make([]Rec, 0, len(recs))
	for _, r := range recs {
		if end := r.End(); end >= from && (to <= 0 || end <= to) {
			sel = append(sel, r)
		}
	}
	sort.Slice(sel, func(i, j int) bool {
		if sel[i].Start != sel[j].Start {
			return sel[i].Start < sel[j].Start
		}
		return sel[i].ID < sel[j].ID
	})

	// Greedy lane assignment (interval colouring on start-sorted
	// intervals uses the minimum number of lanes).
	lanes := []int64{} // per lane: end of its latest request
	lane := make([]int32, len(sel))
	events := 0
	for i, r := range sel {
		assigned := -1
		for li, lastEnd := range lanes {
			if lastEnd <= r.Start {
				assigned = li
				break
			}
		}
		if assigned < 0 {
			assigned = len(lanes)
			lanes = append(lanes, 0)
		}
		lanes[assigned] = r.End()
		lane[i] = int32(assigned)
		events += 2
		for _, ns := range r.Stages {
			if ns > 0 {
				events += 2
			}
		}
	}

	tr := tracev.New(events + 1)
	for i := range sel {
		r := &sel[i]
		id := int64(r.ID)
		tr.Begin(lane[i], r.Start, tracev.KindRequest, id)
		at := r.Start
		for st := Stage(0); st < NumStages; st++ {
			ns := r.Stages[st]
			if ns == 0 {
				continue
			}
			tr.Begin(lane[i], at, stageKind[st], id)
			at += ns
			tr.End(lane[i], at, stageKind[st], id)
		}
		tr.End(lane[i], at, tracev.KindRequest, id)
	}

	byID := make(map[int64]string, len(sel))
	for i := range sel {
		byID[int64(sel[i].ID)] = sel[i].IDString()
	}
	return tr.WriteChrome(w, tracev.ChromeOptions{
		Process: "locusd",
		TrackName: func(track int32) string {
			return fmt.Sprintf("lane %d", track)
		},
		ArgName: func(k tracev.Kind, arg int64) string {
			return byID[arg]
		},
	})
}
