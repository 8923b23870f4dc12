package policy

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Sched is the criticality scheduler element: it switches the host from
// arrival-order dispatch to earliest-deadline-first ordering of the
// requests queued behind a busy shard, and from indiscriminate shedding
// to least-critical-first shedding at a full admission gate. The data
// structure doing the work is EDFQueue; Sched itself carries the element
// identity and the scheduling counters the host bumps.
//
// A nil *Sched means EDF is off. The host's dispatch does not fork on
// it: FIFO is EDF keyed on arrival time, so the nil test only picks the
// queue key (and turns preemption off).
type Sched struct {
	scheduled atomic.Int64
	batches   atomic.Int64
	evictions atomic.Int64
}

// NewSched returns the scheduler element.
func NewSched() *Sched { return &Sched{} }

// NoteScheduled counts one request entering an EDF queue.
func (s *Sched) NoteScheduled() {
	if s != nil {
		s.scheduled.Add(1)
	}
}

// NoteBatch counts one EDF-ordered batch closing.
func (s *Sched) NoteBatch() {
	if s != nil {
		s.batches.Add(1)
	}
}

// NoteEviction counts one queued request shed for a more critical
// arrival.
func (s *Sched) NoteEviction() {
	if s != nil {
		s.evictions.Add(1)
	}
}

// Name implements Element.
func (s *Sched) Name() string { return "edf" }

// Counters implements Element.
func (s *Sched) Counters() []Counter {
	return []Counter{
		{Name: "scheduled_total", Help: "requests entered into EDF queues", Value: s.scheduled.Load()},
		{Name: "batches_total", Help: "EDF-ordered batches dispatched", Value: s.batches.Load()},
		{Name: "evictions_total", Help: "queued requests shed for more critical arrivals", Value: s.evictions.Load()},
	}
}

// Item is one queued request: its deadline (criticality) and an opaque
// host value. A host dispatching in arrival order keys Deadline on the
// arrival time instead. An Item belongs to at most one EDFQueue at a
// time; hosts embed it in their own request record to queue without a
// second allocation.
type Item struct {
	Deadline time.Time
	Value    any
	seq      uint64 // push order within the queue: the equal-deadline tiebreak
}

// EDFQueue is a deadline-ordered request queue: Push admits in O(log n),
// PopBatch drains up to a batch in earliest-deadline-first order, and
// EvictSlackest removes the least-critical entry — the preemption the
// criticality-aware shed uses. All methods are safe for concurrent use;
// an item removed by one path (pop, evict) is invisible to every other,
// which is what makes the host's one-completion-per-request invariant
// easy to keep.
//
// C is a one-slot wake channel: Push signals it, consumers wait on it.
// Because the slot is buffered, a signal sent between a consumer's
// empty-check and its wait is never lost.
type EDFQueue struct {
	mu     sync.Mutex
	heap   itemHeap // min-heap on (Deadline, seq); zero deadline sorts last
	pushes uint64   // Items pushed so far; stamps Item.seq
	notify chan struct{}
}

// NewEDFQueue returns an empty queue.
func NewEDFQueue() *EDFQueue {
	return &EDFQueue{notify: make(chan struct{}, 1)}
}

// DeadlineLess is the criticality order: a is more critical than b when
// its deadline is earlier. The zero time (no deadline) is least
// critical and sorts after every real deadline. Exported so hosts
// comparing candidate shed victims rank them exactly as the queue does.
func DeadlineLess(a, b time.Time) bool {
	if a.IsZero() {
		return false
	}
	if b.IsZero() {
		return true
	}
	return a.Before(b)
}

// Push enqueues it and signals a waiting consumer.
func (q *EDFQueue) Push(it *Item) {
	q.mu.Lock()
	q.pushes++
	it.seq = q.pushes
	heap.Push(&q.heap, it)
	q.mu.Unlock()
	q.Signal()
}

// PopBatch removes and returns up to max items in deadline order
// (earliest first). It returns nil when the queue is empty. A partial
// drain re-arms the wake channel, so a sibling consumer (or the caller's
// next lap) picks up the remainder.
func (q *EDFQueue) PopBatch(max int) []*Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := min(max, len(q.heap))
	if n < 1 {
		return nil
	}
	out := make([]*Item, n)
	for i := range out {
		out[i] = heap.Pop(&q.heap).(*Item)
	}
	if len(q.heap) > 0 {
		q.Signal()
	}
	return out
}

// Len reports the queued item count.
func (q *EDFQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// SlackestDeadline peeks the least-critical queued deadline (the
// latest, with "no deadline" counting as infinitely late). ok is false
// on an empty queue.
func (q *EDFQueue) SlackestDeadline() (deadline time.Time, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := q.slackestLocked()
	if i < 0 {
		return time.Time{}, false
	}
	return q.heap[i].Deadline, true
}

// EvictSlackest removes and returns the least-critical queued item,
// provided it is strictly less critical than tighterThan (a zero
// tighterThan preempts only no-deadline entries). It returns nil when
// no entry qualifies — the caller's request is then the least critical
// and must be shed itself.
func (q *EDFQueue) EvictSlackest(tighterThan time.Time) *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := q.slackestLocked()
	if i < 0 {
		return nil
	}
	if !DeadlineLess(tighterThan, q.heap[i].Deadline) {
		return nil
	}
	return heap.Remove(&q.heap, i).(*Item)
}

// slackestLocked finds the max-deadline index, -1 when empty. The max
// of a min-heap lives in the leaves; scanning the whole slice is simple
// and the queue is bounded by the host's admission gate.
func (q *EDFQueue) slackestLocked() int {
	if len(q.heap) == 0 {
		return -1
	}
	max := 0
	for i := 1; i < len(q.heap); i++ {
		if DeadlineLess(q.heap[max].Deadline, q.heap[i].Deadline) {
			max = i
		}
	}
	return max
}

// C is the wake channel: one buffered signal per Push.
func (q *EDFQueue) C() <-chan struct{} { return q.notify }

// Signal re-arms the wake channel without enqueueing.
func (q *EDFQueue) Signal() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// itemHeap is the queue's container/heap ordering: DeadlineLess, with
// equal deadlines popping in push order — a binary heap alone is not
// stable, and arrival-order dispatch is exactly the all-keys-tie case.
type itemHeap []*Item

func (h itemHeap) Len() int      { return len(h) }
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h itemHeap) Less(i, j int) bool {
	if h[i].Deadline.Equal(h[j].Deadline) {
		return h[i].seq < h[j].seq
	}
	return DeadlineLess(h[i].Deadline, h[j].Deadline)
}
func (h *itemHeap) Push(x any) { *h = append(*h, x.(*Item)) }
func (h *itemHeap) Pop() any {
	old := *h
	last := len(old) - 1
	it := old[last]
	old[last] = nil
	*h = old[:last]
	return it
}
