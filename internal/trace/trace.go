// Package trace represents shared-data reference traces, the role Tango
// played for the paper (Section 2.2): for each shared reference the time,
// address and referencing processor are recorded. The traced shared
// memory router (internal/sm) appends to one stream per logical process —
// a straight run of cell reads as one Run, every other reference as a
// run of one — and a Merger interleaves the streams on (time, processor),
// handing the references it can emit to its consumer in batches of a
// bounded size: the cache coherence simulator (internal/cache), or a
// Trace when the caller wants the references kept.
package trace

import (
	"fmt"
	"math"
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

// Run is a straight run of N references by one process: reference i (from
// 0) is at time T + i·DT and address Addr + i·Stride. A traced process
// reading a straight run of cost array cells produces one, so the merger
// buffers a run as one item however many references it holds.
type Run struct {
	T, DT  sim.Time
	Proc   int
	Addr   uint64
	Stride int64 // address step in bytes; negative walks down
	N      int
	Op     Op
}

// Trace is a materialised, time-ordered sequence of references: the form
// a trace takes in a file or when one run feeds several later replays.
type Trace struct {
	Refs []Ref
}

// Append adds a reference.
func (t *Trace) Append(r Ref) { t.Refs = append(t.Refs, r) }

// AppendBatch adds a batch of references. Its signature is a Merger
// sink, which is how a Trace is filled in order.
func (t *Trace) AppendBatch(refs []Ref) { t.Refs = append(t.Refs, refs...) }

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
// A stream buffers runs, not references: emitting a run's head reference
// advances the run in place, so the cost of buffering follows the runs a
// process appends (about six references each on bnrE) while the emitted
// order stays reference by reference. A buffered run is a 32-byte item.
// What a drain emits reaches the sink through one reused 16 KB buffer,
// so the merger's memory does not grow with how much one drain emits.
type Merger struct {
	sink    func([]Ref)
	batch   []Ref // the references emitted and not yet handed to sink
	streams []stream
	tree    []uint64 // winner tree: tree[1] is the root, tree[len(tree)/2:] the leaves
	bits    uint     // processor bits in a key
	maxT    sim.Time // the largest T a key can hold
	// buffered is the number of references appended and not yet emitted;
	// peak is its high-water mark.
	buffered, peak int
}

// batchRefs is the most references one sink call carries.
const batchRefs = 512

// item is a buffered run of one stream: n references from time t and
// address addr on, dt and stride apart.
type item struct {
	t             sim.Time
	addr          uint64
	dt, stride, n int32
	op            Op
}

// stream is one process's buffered runs: next holds the process's next
// reference (none pending when next.n is zero), and runs[head:] queue
// behind it. Keeping the run being emitted inline saves the merge loop a
// pointer chase per reference. last is the time of the latest reference
// appended.
type stream struct {
	next item
	runs []item
	head int
	last sim.Time
}

// empty is the key of a leaf with nothing pending: above every real key,
// whose processor bits are never all ones.
const empty = ^uint64(0)

// NewMerger returns a merger over procs streams emitting into sink. Each
// Drain or Flush hands sink what it emits, in order, in batches of 1 to
// batchRefs (512) references, each valid only during the call.
func NewMerger(procs int, sink func([]Ref)) *Merger {
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
		batch:   make([]Ref, 0, batchRefs),
		streams: make([]stream, procs),
		tree:    tree,
		bits:    b,
		maxT:    sim.Time(empty >> b),
	}
}

// Append buffers r on its process's stream, as a run of one.
func (m *Merger) Append(r Ref) {
	m.AppendRun(Run{T: r.T, Proc: r.Proc, Addr: r.Addr, N: 1, Op: r.Op})
}

// AppendRun buffers run r on its process's stream. r.N must be positive
// and r.DT not negative, r.N, r.DT and r.Stride must fit in 32 bits, and
// the run's times must lie between that of the stream's previous
// reference (zero for the first) and the packing bound; AppendRun panics
// otherwise, because the merge would misorder or truncate it.
func (m *Merger) AppendRun(r Run) {
	s := &m.streams[r.Proc]
	if r.N < 1 || r.DT < 0 || r.N > math.MaxInt32 || r.DT > math.MaxInt32 || int64(int32(r.Stride)) != r.Stride {
		panic(fmt.Sprintf("trace: proc %d appended a run of %d refs %d apart, stride %d", r.Proc, r.N, r.DT, r.Stride))
	}
	last, ok := r.T, r.T >= s.last && r.T <= m.maxT
	if ok && r.N > 1 && r.DT > 0 {
		// The last reference's time, checked without overflowing.
		ok = sim.Time(r.N-1) <= (m.maxT-r.T)/r.DT
		last = r.T + sim.Time(r.N-1)*r.DT
	}
	if !ok {
		panic(fmt.Sprintf("trace: proc %d appended T=%d after T=%d (times must not decrease or exceed %d)",
			r.Proc, last, s.last, m.maxT))
	}
	s.last = last
	it := item{t: r.T, addr: r.Addr, dt: int32(r.DT), stride: int32(r.Stride), n: int32(r.N), op: r.Op}
	if s.next.n == 0 {
		s.next = it
	} else {
		s.runs = append(s.runs, it)
	}
	if m.buffered += r.N; m.buffered > m.peak {
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

// drain emits references while the least pending key is below limit,
// handing them to the sink a full batch at a time and then the rest.
func (m *Merger) drain(limit uint64) {
	leaves := len(m.tree) / 2
	for p := range m.streams {
		m.tree[leaves+p] = m.head(p)
	}
	for i := leaves - 1; i > 0; i-- {
		m.tree[i] = min(m.tree[2*i], m.tree[2*i+1])
	}
	tree, mask, batch := m.tree, uint64(1)<<m.bits-1, m.batch
	for k := tree[1]; k < limit; {
		p := int(k & mask)
		s := &m.streams[p]
		r := &s.next
		batch = append(batch, Ref{T: r.t, Proc: p, Addr: r.addr, Op: r.op})
		if len(batch) == batchRefs {
			batch = m.emit(batch)
		}
		if r.n--; r.n > 0 {
			// The run's next reference: its key is dt later.
			r.t += sim.Time(r.dt)
			r.addr += uint64(r.stride)
			k += uint64(r.dt) << m.bits
		} else {
			if s.head < len(s.runs) {
				s.next = s.runs[s.head]
				s.head++
			}
			k = m.head(p)
		}
		// Replay p's leaf towards the root; k ends as the root's key.
		for i := leaves + p; i > 1; i /= 2 {
			tree[i] = k
			k = min(k, tree[i^1])
		}
	}
	for p := range m.streams {
		m.streams[p].compact()
	}
	m.batch = m.emit(batch)
}

// emit hands a non-empty batch to the sink and returns it emptied.
func (m *Merger) emit(batch []Ref) []Ref {
	if len(batch) > 0 {
		m.buffered -= len(batch)
		m.sink(batch)
	}
	return batch[:0]
}

// head returns the key of stream p's next reference.
func (m *Merger) head(p int) uint64 {
	s := &m.streams[p]
	if s.next.n == 0 {
		return empty
	}
	return uint64(s.next.t)<<m.bits | uint64(p)
}

// compact reclaims the popped prefix of runs once it is at least half
// the buffer, so a stream's memory follows what is pending, not what has
// passed through, at amortised constant cost per run.
func (s *stream) compact() {
	if s.head < len(s.runs)-s.head {
		return
	}
	n := copy(s.runs, s.runs[s.head:])
	s.runs, s.head = s.runs[:n], 0
}
