// Package trace represents shared-data reference traces, the role Tango
// played for the paper (Section 2.2): for each shared reference the time,
// address and referencing processor are recorded. The traced shared
// memory router (internal/sm) appends to one stream per logical process,
// a Merger interleaves the streams on (time, processor) and hands each
// reference to its consumer — the cache coherence simulator
// (internal/cache), or a Trace when the caller wants the references kept.
package trace

import "locusroute/internal/sim"

// Op is the reference type.
type Op uint8

const (
	// Read is a load from shared memory.
	Read Op = iota
	// Write is a store to shared memory.
	Write
)

// Ref is one shared-data reference.
type Ref struct {
	T    sim.Time
	Proc int
	Addr uint64 // byte address of the referenced word
	Op   Op
}

// Trace is a materialised, time-ordered sequence of references: the form
// a trace takes in a file or when one run feeds several later replays.
type Trace struct {
	Refs []Ref
}

// Append adds a reference. Its signature is a Merger sink, which is how a
// Trace is filled in order.
func (t *Trace) Append(r Ref) { t.Refs = append(t.Refs, r) }

// Len returns the number of references.
func (t *Trace) Len() int { return len(t.Refs) }

// Counts returns the number of reads and writes.
func (t *Trace) Counts() (reads, writes int) {
	for _, r := range t.Refs {
		if r.Op == Read {
			reads++
		} else {
			writes++
		}
	}
	return reads, writes
}

// Merger interleaves per-process reference streams into one time-ordered
// stream. A process's clock only advances, so each stream arrives already
// sorted and a P-way merge keyed on (T, Proc) with first-in-first-out
// order inside a stream yields exactly what a stable sort of the
// concatenation on the same key would, at O(n log P) and without ever
// holding the whole trace: Drain emits what can no longer be preceded.
type Merger struct {
	sink    func(Ref)
	streams []stream
	heap    []key // one entry per stream with pending refs, least first
	// buffered is the number of references appended and not yet emitted;
	// peak is its high-water mark.
	buffered, peak int
}

// stream is one process's buffered references; refs[head:] are pending.
type stream struct {
	refs []Ref
	head int
}

// key is the interleaving order of a stream's head reference: time, ties
// by processor. References equal on both come from one process and keep
// their emission order.
type key struct {
	t    sim.Time
	proc int
}

func (k key) before(o key) bool {
	if k.t != o.t {
		return k.t < o.t
	}
	return k.proc < o.proc
}

// NewMerger returns a merger over procs streams emitting into sink.
func NewMerger(procs int, sink func(Ref)) *Merger {
	return &Merger{sink: sink, streams: make([]stream, procs), heap: make([]key, 0, procs)}
}

// Append buffers r on its process's stream. r.T must not be lower than
// that of the stream's previous reference.
func (m *Merger) Append(r Ref) {
	s := &m.streams[r.Proc]
	s.refs = append(s.refs, r)
	if m.buffered++; m.buffered > m.peak {
		m.peak = m.buffered
	}
}

// Peak returns the largest number of references that were buffered at
// once.
func (m *Merger) Peak() int { return m.peak }

// Drain emits, in order, every buffered reference with T strictly below
// watermark. The caller promises that no later Append carries a T below
// watermark; equal is allowed (a process whose accesses cost no time
// emits at its current clock), which is why the bound is strict.
func (m *Merger) Drain(watermark sim.Time) { m.drain(watermark, false) }

// Flush emits everything still buffered.
func (m *Merger) Flush() { m.drain(0, true) }

func (m *Merger) drain(watermark sim.Time, all bool) {
	h := m.heap[:0]
	for p := range m.streams {
		if s := &m.streams[p]; s.head < len(s.refs) {
			h = append(h, key{t: s.refs[s.head].T, proc: p})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	for len(h) > 0 && (all || h[0].t < watermark) {
		s := &m.streams[h[0].proc]
		m.sink(s.refs[s.head])
		m.buffered--
		if s.head++; s.head < len(s.refs) {
			h[0].t = s.refs[s.head].T
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(h, 0)
	}
	for p := range m.streams {
		m.streams[p].compact()
	}
}

// down restores the min-heap order of h below position i.
func down(h []key, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].before(h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// compact reclaims the emitted prefix once it is at least half the
// buffer, so a stream's memory follows what is pending, not what has
// passed through, at amortised constant cost per reference.
func (s *stream) compact() {
	if s.head < len(s.refs)-s.head {
		return
	}
	n := copy(s.refs, s.refs[s.head:])
	s.refs, s.head = s.refs[:n], 0
}
