package cache

import (
	"container/list"
	"fmt"

	"locusroute/internal/trace"
)

// FiniteSimulator extends the infinite-cache coherence simulation with a
// bounded per-processor cache (fully associative, LRU replacement), the
// configuration the paper's footnote 3 sets aside: "a small cache will
// have a higher miss rate requiring more data fetches from main memory."
// It exists to quantify that footnote — capacity misses add traffic on
// top of the coherence traffic the infinite model isolates.
type FiniteSimulator struct {
	// Simulator is the coherence protocol and its accounting; a line a
	// processor has evicted is simply invalid there again.
	*Simulator
	capacity int          // lines per processor cache
	lru      []*list.List // per processor, front = most recent; values are line indices
	// pos[idx*procs+p] is line idx's element in p's LRU list, nil when
	// the line occupies no slot of p's cache. An invalidated line keeps
	// its slot.
	pos       []*list.Element
	evictions int64
}

// NewFinite builds a finite-cache simulator with capacityLines lines per
// processor.
func NewFinite(procs, lineSize, capacityLines int) (*FiniteSimulator, error) {
	inf, err := New(procs, lineSize)
	if err != nil {
		return nil, err
	}
	if capacityLines <= 0 {
		return nil, fmt.Errorf("cache: capacity %d lines must be positive", capacityLines)
	}
	s := &FiniteSimulator{Simulator: inf, capacity: capacityLines, lru: make([]*list.List, procs)}
	for i := range s.lru {
		s.lru[i] = list.New()
	}
	return s, nil
}

// Access runs one reference: the coherence step, then the line moves to
// the front of the processor's LRU order, evicting from the back when it
// took a new slot in a full cache.
func (s *FiniteSimulator) Access(r trace.Ref) {
	idx := s.access(r)
	slot := idx*s.procs + r.Proc
	if len(s.pos) < len(s.state) {
		s.pos = append(s.pos, make([]*list.Element, len(s.state)-len(s.pos))...)
	}
	lru := s.lru[r.Proc]
	if s.pos[slot] != nil {
		lru.MoveToFront(s.pos[slot])
		return
	}
	s.pos[slot] = lru.PushFront(idx)
	for lru.Len() > s.capacity {
		victim := lru.Remove(lru.Back()).(int)*s.procs + r.Proc
		if s.state[victim] == dirty {
			// Dirty eviction writes the line back to memory.
			s.traffic.Writebacks++
			s.traffic.WritebackBytes += int64(s.lineSize)
		}
		s.state[victim] = invalid
		s.pos[victim] = nil
		s.evictions++
	}
}

// ReplayFinite runs a whole trace through a finite-cache simulation.
func ReplayFinite(t *trace.Trace, procs, lineSize, capacityLines int) (Traffic, error) {
	s, err := NewFinite(procs, lineSize, capacityLines)
	if err != nil {
		return Traffic{}, err
	}
	for _, r := range t.Refs {
		s.Access(r)
	}
	return s.Traffic(), nil
}
