// Package cache simulates a bus-based Write Back with Invalidate cache
// coherence protocol (Archibald & Baer style) over a shared reference
// trace, and accounts the bus traffic in bytes — the shared memory side of
// the paper's traffic comparison (Section 5.2).
//
// Per the paper, caches are infinite (traffic is purely coherence and
// cold-miss traffic, not capacity misses) and traffic has three parts:
//
//  1. a processor's initial access to a location misses and brings the
//     line into its cache (a line fill);
//  2. the first write to a clean line causes a word write on the shared
//     bus, and every other cache holding the line invalidates its copy;
//  3. an access to a line that was invalidated refetches it from memory
//     (another line fill), with a dirty owner first writing the line
//     back.
package cache

import (
	"fmt"

	"locusroute/internal/obs"
	"locusroute/internal/trace"
)

// WordSize is the width in bytes of the bus word write caused by the
// first write to a clean line.
const WordSize = 4

// lineState is a per-(processor, line) coherence state.
type lineState uint8

const (
	invalid lineState = iota
	shared            // present and clean
	dirty             // present and modified (exclusive)
)

// Traffic is the bus-byte accounting of a simulation.
type Traffic struct {
	FillBytes      int64 // line fills (cold misses and refetches)
	WriteWordBytes int64 // word writes announcing a write to a clean line
	WritebackBytes int64 // dirty lines written back when another cache needs them
	Fills          int64
	WriteWords     int64
	Writebacks     int64
	Invalidations  int64 // copies invalidated in other caches
	Refs           int64
}

// Bytes returns total bus traffic in bytes.
func (t Traffic) Bytes() int64 { return t.FillBytes + t.WriteWordBytes + t.WritebackBytes }

// MBytes returns total bus traffic in megabytes (10^6 bytes, as the
// paper's tables report).
func (t Traffic) MBytes() float64 { return float64(t.Bytes()) / 1e6 }

// Simulator runs a reference stream against per-processor infinite
// caches. Every line ever referenced has a dense index, handed out in
// first-touch order by the line table; all per-line state is flat and
// indexed by it.
type Simulator struct {
	lineSize int
	procs    int
	lines    lineTable
	// state[idx*procs+p] is processor p's coherence state for line idx,
	// so the P copies a write invalidates or a miss inspects are
	// contiguous.
	state []lineState
	// held[idx*heldWords:][p/64] bit p%64 is set once processor p has
	// filled line idx, which tells a refetch from a cold fill.
	held      []uint64
	heldWords int
	// refetchBytes are the fill bytes of refetches: a later refetch is
	// charged to the write that invalidated the line, for the
	// writes-cause-most-traffic analysis.
	refetchBytes int64
	traffic      Traffic
}

// lineTable maps a line number to its dense index. The cost array's
// lines are small consecutive numbers and take the direct-indexed
// window; anything beyond it (the distributed loop's counter sits at
// 1<<40) goes through the map. Either way an access costs one lookup.
type lineTable struct {
	// near[line] and far[line] hold index+1; 0 is a line not seen yet.
	near []int32
	far  map[uint64]int32
	n    int32
}

// nearLines bounds the direct-indexed window (4 MiB of int32 at most,
// grown on demand).
const nearLines = 1 << 20

// index returns line's dense index and whether this call created it.
func (t *lineTable) index(line uint64) (idx int, fresh bool) {
	if line >= nearLines {
		v, seen := t.far[line]
		if !seen {
			if t.far == nil {
				t.far = make(map[uint64]int32)
			}
			t.n++
			v = t.n
			t.far[line] = v
		}
		return int(v - 1), !seen
	}
	if line >= uint64(len(t.near)) {
		t.near = append(t.near, make([]int32, int(line)+1-len(t.near))...)
	}
	if t.near[line] == 0 {
		t.n++
		t.near[line] = t.n
		fresh = true
	}
	return int(t.near[line] - 1), fresh
}

// New builds a simulator for procs processors with the given cache line
// size in bytes (a positive multiple of WordSize).
func New(procs, lineSize int) (*Simulator, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("cache: processor count %d must be positive", procs)
	}
	if lineSize <= 0 || lineSize%WordSize != 0 {
		return nil, fmt.Errorf("cache: line size %d must be a positive multiple of %d",
			lineSize, WordSize)
	}
	return &Simulator{lineSize: lineSize, procs: procs, heldWords: (procs + 63) / 64}, nil
}

// LineSize returns the configured line size in bytes.
func (s *Simulator) LineSize() int { return s.lineSize }

// Traffic returns the accumulated accounting.
func (s *Simulator) Traffic() Traffic { return s.traffic }

// AttributedRefetchBytes returns the fill bytes attributable to
// invalidations (refetches) rather than cold misses.
func (s *Simulator) AttributedRefetchBytes() int64 { return s.refetchBytes }

// AttributedWriteFraction returns the fraction of all bus bytes caused by
// writes when invalidation-induced refetches are charged to the writes
// that caused them — the paper's "over 80% of the bytes transferred...
// are caused by writes" statistic.
func (s *Simulator) AttributedWriteFraction() float64 {
	b := s.traffic.Bytes()
	if b == 0 {
		return 0
	}
	return float64(s.traffic.WriteWordBytes+s.traffic.WritebackBytes+s.refetchBytes) / float64(b)
}

// Doc renders the simulator's accumulated traffic as an observability
// document, including the refetch attribution only the simulator (not a
// bare Traffic) knows.
func (s *Simulator) Doc() obs.CacheDoc {
	t := s.traffic
	return obs.CacheDoc{
		LineSize:       s.lineSize,
		Refs:           t.Refs,
		Bytes:          t.Bytes(),
		FillBytes:      t.FillBytes,
		WriteWordBytes: t.WriteWordBytes,
		WritebackBytes: t.WritebackBytes,
		Fills:          t.Fills,
		WriteWords:     t.WriteWords,
		Writebacks:     t.Writebacks,
		Invalidations:  t.Invalidations,
		RefetchBytes:   s.refetchBytes,
		WriteFraction:  s.AttributedWriteFraction(),
	}
}

// Access runs one reference.
func (s *Simulator) Access(r trace.Ref) { s.access(r) }

// access is Access returning the line's dense index, which the finite
// simulator keys residency on.
func (s *Simulator) access(r trace.Ref) int {
	if r.Proc < 0 || r.Proc >= s.procs {
		panic(fmt.Sprintf("cache: reference from processor %d of %d", r.Proc, s.procs))
	}
	s.traffic.Refs++
	idx, fresh := s.lines.index(r.Addr / uint64(s.lineSize))
	if fresh {
		s.state = append(s.state, make([]lineState, s.procs)...)
		s.held = append(s.held, make([]uint64, s.heldWords)...)
	}
	copies := s.state[idx*s.procs : (idx+1)*s.procs]
	st := copies[r.Proc]

	if st == invalid {
		// Miss: a dirty owner must write the line back first.
		for p, other := range copies {
			if other == dirty && p != r.Proc {
				copies[p] = shared
				s.traffic.Writebacks++
				s.traffic.WritebackBytes += int64(s.lineSize)
			}
		}
		s.fill(idx, r.Proc)
		st = shared
	}

	if r.Op == trace.Write && st != dirty {
		// First write to a clean line: word write on the bus, every
		// other copy invalidates.
		s.traffic.WriteWords++
		s.traffic.WriteWordBytes += WordSize
		for p, other := range copies {
			if other != invalid && p != r.Proc {
				copies[p] = invalid
				s.traffic.Invalidations++
			}
		}
		st = dirty
	}
	copies[r.Proc] = st
	return idx
}

func (s *Simulator) fill(idx, proc int) {
	s.traffic.Fills++
	s.traffic.FillBytes += int64(s.lineSize)
	word, bit := &s.held[idx*s.heldWords+proc/64], uint64(1)<<(proc%64)
	if *word&bit != 0 {
		// This processor held the line before: the fill is a refetch
		// caused by an invalidation.
		s.refetchBytes += int64(s.lineSize)
	}
	*word |= bit
}

// Replay runs an entire (time-ordered) trace and returns the traffic.
func Replay(t *trace.Trace, procs, lineSize int) (Traffic, error) {
	s, err := New(procs, lineSize)
	if err != nil {
		return Traffic{}, err
	}
	for _, r := range t.Refs {
		s.Access(r)
	}
	return s.Traffic(), nil
}
