// Package trace represents shared-data reference traces, the role Tango
// played for the paper (Section 2.2): for each shared reference the time,
// address and referencing processor are recorded. The traced shared
// memory router (internal/sm) appends to one stream per logical process,
// a Merger interleaves the streams on (time, processor) and hands each
// reference to its consumer — the cache coherence simulator
// (internal/cache), or a Trace when the caller wants the references kept.
package trace

import (
	"fmt"
	"math/bits"

	"locusroute/internal/sim"
)

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
//
// The merge is a winner tree over the streams, padded to a power of two:
// each leaf holds its stream's head key and each inner node the lesser of
// its children, so the root is the next reference. A key packs (T, Proc)
// into one uint64, T above the processor bits, so replaying a leaf up to
// the root costs one integer compare per level and no swaps. The merged
// stream rarely stays on one process (on bnrE with 16 procs it switches
// after 1.00 references on average), which is why every emission replays.
type Merger struct {
	sink    func(Ref)
	streams []stream
	tree    []uint64 // winner tree: tree[1] is the root, tree[len(tree)/2:] the leaves
	bits    uint     // processor bits in a key
	maxT    sim.Time // the largest T a key can hold
	// buffered is the number of references appended and not yet emitted;
	// peak is its high-water mark.
	buffered, peak int
}

// stream is one process's buffered references; refs[head:] are pending.
// last is the time of the latest reference appended.
type stream struct {
	refs []Ref
	head int
	last sim.Time
}

// empty is the key of a leaf with nothing pending: above every real key,
// whose processor bits are never all ones.
const empty = ^uint64(0)

// NewMerger returns a merger over procs streams emitting into sink.
func NewMerger(procs int, sink func(Ref)) *Merger {
	leaves := 1
	for leaves < procs {
		leaves *= 2
	}
	tree := make([]uint64, 2*leaves)
	for i := range tree {
		tree[i] = empty // padding leaves stay empty; drain fills the rest
	}
	b := uint(bits.Len(uint(procs)))
	return &Merger{
		sink:    sink,
		streams: make([]stream, procs),
		tree:    tree,
		bits:    b,
		maxT:    sim.Time(empty >> b),
	}
}

// Append buffers r on its process's stream. r.T must lie between that of
// the stream's previous reference (zero for the first) and the packing
// bound; Append panics otherwise, because the merge would misorder it.
func (m *Merger) Append(r Ref) {
	s := &m.streams[r.Proc]
	if r.T < s.last || r.T > m.maxT {
		panic(fmt.Sprintf("trace: proc %d appended T=%d after T=%d (times must not decrease or exceed %d)",
			r.Proc, r.T, s.last, m.maxT))
	}
	s.last = r.T
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
func (m *Merger) Drain(watermark sim.Time) {
	switch {
	case watermark > m.maxT:
		m.drain(empty)
	case watermark > 0:
		m.drain(uint64(watermark) << m.bits)
	}
}

// Flush emits everything still buffered.
func (m *Merger) Flush() { m.drain(empty) }

// drain emits references while the least pending key is below limit.
func (m *Merger) drain(limit uint64) {
	leaves := len(m.tree) / 2
	for p := range m.streams {
		m.tree[leaves+p] = m.head(p)
	}
	for i := leaves - 1; i > 0; i-- {
		m.tree[i] = min(m.tree[2*i], m.tree[2*i+1])
	}
	for k := m.tree[1]; k < limit; {
		p := int(k & (1<<m.bits - 1))
		s := &m.streams[p]
		m.sink(s.refs[s.head])
		m.buffered--
		s.head++
		// Replay p's leaf towards the root; k ends as the root's key.
		k = m.head(p)
		for i := leaves + p; i > 1; i /= 2 {
			m.tree[i] = k
			k = min(k, m.tree[i^1])
		}
	}
	for p := range m.streams {
		m.streams[p].compact()
	}
}

// head returns the key of stream p's first pending reference.
func (m *Merger) head(p int) uint64 {
	s := &m.streams[p]
	if s.head == len(s.refs) {
		return empty
	}
	return uint64(s.refs[s.head].T)<<m.bits | uint64(p)
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
