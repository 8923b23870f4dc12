package tracev

import (
	"fmt"
	"sort"
)

// This file extracts the critical path of a traced DES run: the single
// chain of dependent events that sets the run's simulated time. The
// aggregate per-node breakdown (internal/obs) answers "how much time
// went where in total"; the critical path answers the sharper question
// the paper's Section 5.1.3 blocking analysis poses — which waits
// actually bound execution, and which packet (from which node) ended
// each one.
//
// # How the walk works
//
// The MP DES node stamps a KindAccount event at every point its
// simulated time advances, so each track's stamps tile its life into
// contiguous category intervals — the same partition the node's time
// ledger accumulates, kept as a sequence instead of four sums. Packet flows
// tie the tracks together: a FlowBegin on the sender at injection and a
// FlowEnd on the receiver at dequeue share a flow id.
//
// The walk starts at the run's end — the last stamp of the
// last-finishing node — and moves a global time cursor backward to
// zero, attributing every covered interval to exactly one category:
//
//   - A busy interval (compute or packet) lies on the path as itself:
//     attribute it and continue on the same track at its start.
//   - An idle interval (blocked or barrier) was ended by a packet
//     dequeue. The wait existed because that packet had not yet
//     arrived, so the wait back to the packet's injection is charged to
//     the idle category, and the walk jumps to the *sender's* track at
//     injection time — the causal predecessor. If the packet was
//     already in flight when the receiver started waiting, the flight
//     portion before the wait began is charged to CatNetwork.
//
// Because each step moves the cursor strictly downward and attributes
// the skipped interval to exactly one category, the per-category sums
// add up to the run's simulated time by construction. If the ring
// wrapped and the oldest events are gone, the unreachable prefix is
// charged to CatUntraced — the identity still holds.
type span struct {
	from, to int64
	cat      Category
}

type flowEndRec struct {
	at   int64
	flow uint64
	arg  int64
}

type flowRef struct {
	at    int64
	track int32
}

type wireSpan struct {
	from, to int64
	wire     int64
}

// Step is one interval of the critical path.
type Step struct {
	// Track is the node whose activity (or wait) covers the interval.
	Track int32
	// Cat is the time category the interval is charged to.
	Cat Category
	// FromNs and ToNs bound the interval in simulated nanoseconds.
	FromNs, ToNs int64
	// Wire is the wire being routed during a compute interval (-1 when
	// no wire span covers it).
	Wire int64
	// Flow, when non-zero, is the packet whose arrival ended this wait;
	// FromTrack is the node that sent it and Bytes its size.
	Flow      uint64
	FromTrack int32
	Bytes     int64
}

// DurNs returns the step's length.
func (s Step) DurNs() int64 { return s.ToNs - s.FromNs }

// CriticalPath is the extracted chain and its per-category breakdown.
type CriticalPath struct {
	// TotalNs is the run's simulated end time; the ByCat entries sum to
	// it exactly.
	TotalNs int64
	// ByCat attributes every path nanosecond to one category.
	ByCat [NumCategories]int64
	// Steps is the chain in forward time order; adjacent intervals with
	// identical attribution are merged.
	Steps []Step
	// Hops counts the cross-track jumps (waits ended by a packet from
	// another node).
	Hops int
	// EndTrack is the last-finishing node the walk started from.
	EndTrack int32
}

// Seconds converts a ByCat entry to floating-point seconds.
func (p *CriticalPath) Seconds(cat Category) float64 {
	return float64(p.ByCat[cat]) / 1e9
}

// Analyze extracts the critical path from a trace's events (as returned
// by Tracer.Events: oldest first). It fails only when the trace holds
// no account stamps at all — there is no timeline to walk.
func Analyze(events []Event) (*CriticalPath, error) {
	spans := map[int32][]span{}
	last := map[int32]int64{}
	flowEnds := map[int32][]flowEndRec{}
	flowBegins := map[uint64]flowRef{}
	wires := map[int32][]wireSpan{}
	wireOpen := map[int32][]wireSpan{}

	for _, e := range events {
		switch {
		case e.Kind == KindAccount:
			prev := last[e.Track]
			if e.At > prev {
				spans[e.Track] = append(spans[e.Track], span{from: prev, to: e.At, cat: Category(e.Arg)})
			}
			last[e.Track] = e.At
		case e.Type == TypeFlowBegin:
			flowBegins[e.Flow] = flowRef{at: e.At, track: e.Track}
		case e.Type == TypeFlowEnd:
			flowEnds[e.Track] = append(flowEnds[e.Track], flowEndRec{at: e.At, flow: e.Flow, arg: e.Arg})
		case e.Kind == KindRouteWire && e.Type == TypeBegin:
			wireOpen[e.Track] = append(wireOpen[e.Track], wireSpan{from: e.At, wire: e.Arg})
		case e.Kind == KindRouteWire && e.Type == TypeEnd:
			if open := wireOpen[e.Track]; len(open) > 0 {
				ws := open[len(open)-1]
				wireOpen[e.Track] = open[:len(open)-1]
				ws.to = e.At
				wires[e.Track] = append(wires[e.Track], ws)
			}
		}
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("tracev: no account stamps in trace (was the run instrumented?)")
	}

	// The walk starts at the maximum finish time; ties break toward the
	// smallest track id so the result is deterministic.
	var start int32
	var total int64 = -1
	tracks := make([]int32, 0, len(last))
	for tr := range last {
		tracks = append(tracks, tr)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
	for _, tr := range tracks {
		if last[tr] > total {
			total, start = last[tr], tr
		}
	}

	p := &CriticalPath{TotalNs: total, EndTrack: start}
	track, t := start, total
	// Each iteration either attributes a positive interval or falls
	// back to CatUntraced and stops, so 2x the span count bounds the
	// walk against malformed input.
	for guard := 0; t > 0; guard++ {
		if guard > 2*len(events)+16 {
			p.attribute(Step{Track: track, Cat: CatUntraced, FromNs: 0, ToNs: t, Wire: -1, FromTrack: -1})
			break
		}
		s, ok := findSpan(spans[track], t)
		if !ok {
			// The ring dropped this track's early stamps (or the jump
			// target predates the trace): the remaining prefix is
			// unattributable.
			p.attribute(Step{Track: track, Cat: CatUntraced, FromNs: 0, ToNs: t, Wire: -1, FromTrack: -1})
			break
		}
		switch s.cat {
		case CatCompute, CatPacket:
			p.attribute(Step{Track: track, Cat: s.cat, FromNs: s.from, ToNs: t,
				Wire: findWire(wires[track], s.from, t), FromTrack: -1})
			t = s.from
		default: // CatBlocked, CatBarrier
			fe, feOK := findFlowEnd(flowEnds[track], t)
			fb, fbOK := flowBegins[fe.flow]
			if !feOK || !fbOK || fb.at >= t {
				// No resolvable cause (dropped events): charge the wait
				// itself and keep walking the same track.
				p.attribute(Step{Track: track, Cat: s.cat, FromNs: s.from, ToNs: t, Wire: -1, FromTrack: -1})
				t = s.from
				break
			}
			waitFrom := fb.at
			if fb.at < s.from {
				// The packet was already in flight when the wait began:
				// the pre-wait flight is network time on the path.
				waitFrom = s.from
			}
			p.attribute(Step{Track: track, Cat: s.cat, FromNs: waitFrom, ToNs: t, Wire: -1,
				Flow: fe.flow, FromTrack: fb.track, Bytes: fe.arg})
			if fb.at < waitFrom {
				p.attribute(Step{Track: track, Cat: CatNetwork, FromNs: fb.at, ToNs: waitFrom, Wire: -1,
					Flow: fe.flow, FromTrack: fb.track, Bytes: fe.arg})
			}
			p.Hops++
			track, t = fb.track, fb.at
		}
	}

	// The walk appended backward; present the chain forward.
	for i, j := 0, len(p.Steps)-1; i < j; i, j = i+1, j-1 {
		p.Steps[i], p.Steps[j] = p.Steps[j], p.Steps[i]
	}
	return p, nil
}

// attribute charges one interval and appends it to the (backward) step
// chain, merging into the previous step when the attribution matches.
func (p *CriticalPath) attribute(s Step) {
	if s.ToNs <= s.FromNs {
		return
	}
	p.ByCat[s.Cat] += s.ToNs - s.FromNs
	if n := len(p.Steps); n > 0 {
		prev := &p.Steps[n-1]
		if prev.Track == s.Track && prev.Cat == s.Cat && prev.Wire == s.Wire &&
			prev.Flow == 0 && s.Flow == 0 && prev.FromNs == s.ToNs {
			prev.FromNs = s.FromNs
			return
		}
	}
	p.Steps = append(p.Steps, s)
}

// findSpan returns the tile containing (from, t]: the earliest span
// with to >= t and from < t.
func findSpan(spans []span, t int64) (span, bool) {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].to >= t })
	if i == len(spans) || spans[i].from >= t {
		return span{}, false
	}
	return spans[i], true
}

// findFlowEnd returns the earliest dequeue at or after t on the track —
// the packet whose arrival ended a wait that finished at t.
func findFlowEnd(ends []flowEndRec, t int64) (flowEndRec, bool) {
	i := sort.Search(len(ends), func(i int) bool { return ends[i].at >= t })
	if i == len(ends) {
		return flowEndRec{}, false
	}
	return ends[i], true
}

// findWire returns the wire whose routing span covers the interval
// midpoint, or -1.
func findWire(ws []wireSpan, from, to int64) int64 {
	mid := from + (to-from)/2
	i := sort.Search(len(ws), func(i int) bool { return ws[i].to >= mid })
	if i == len(ws) || ws[i].from > mid {
		return -1
	}
	return ws[i].wire
}
