package trace

import (
	"math/rand"
	"sort"
	"testing"

	"locusroute/internal/sim"
)

// stableSort is the order the trace used to be put in after the fact: a
// stable sort of the concatenated references on (T, Proc). It is the
// reference the merge is held to.
func stableSort(refs []Ref) {
	sort.SliceStable(refs, func(i, j int) bool {
		if refs[i].T != refs[j].T {
			return refs[i].T < refs[j].T
		}
		return refs[i].Proc < refs[j].Proc
	})
}

// TestMergeMatchesStableSort drives a Merger the way the traced router
// does — processes append to their own streams in some interleaving,
// Drain is called with the lowest time any process may still emit at —
// over random monotone streams, and requires the emitted sequence to be
// exactly the stable sort of everything appended. The step distribution
// makes equal times within a process and across processes common, step 0
// alone is the zero-cost Perf configuration (every reference at T = 0),
// and some processes stay empty.
func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		procs := []int{1, 2, 3, 16}[trial%4]
		steps := [][]sim.Time{{0}, {0, 0, 1}, {0, 1, 2, 7}, {1, 3}}[(trial/4)%4]
		left := make([]int, procs) // refs each process has yet to append
		for p := range left {
			if rng.Intn(4) > 0 {
				left[p] = rng.Intn(40)
			}
		}
		var got, want []Ref
		m := NewMerger(procs, func(r Ref) { got = append(got, r) })
		clock := make([]sim.Time, procs)
		for {
			var live []int
			for p, n := range left {
				if n > 0 {
					live = append(live, p)
				}
			}
			if len(live) == 0 {
				break
			}
			// One process runs for a burst, as one routes a wire.
			p := live[rng.Intn(len(live))]
			for n := 1 + rng.Intn(6); n > 0 && left[p] > 0; n-- {
				clock[p] += steps[rng.Intn(len(steps))]
				r := Ref{T: clock[p], Proc: p, Addr: uint64(len(want)), Op: Op(rng.Intn(2))}
				m.Append(r)
				want = append(want, r)
				left[p]--
			}
			if rng.Intn(3) == 0 {
				// Nothing can still be emitted below the lowest clock of
				// the processes with work left; at it, something can.
				low := sim.Time(-1)
				for q, n := range left {
					if n > 0 && (low < 0 || clock[q] < low) {
						low = clock[q]
					}
				}
				if low >= 0 {
					m.Drain(low)
				}
			}
		}
		m.Flush()
		stableSort(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d refs emitted, %d appended", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d procs, steps %v): ref %d = %+v, stable sort has %+v",
					trial, procs, steps, i, got[i], want[i])
			}
		}
		if m.Peak() > len(want) || (len(want) > 0 && m.Peak() == 0) {
			t.Errorf("trial %d: peak %d with %d refs", trial, m.Peak(), len(want))
		}
	}
}

// TestDrainStopsAtWatermark pins the strict bound: a reference at the
// watermark stays buffered, because a process sitting at that time may
// still emit one that sorts before it.
func TestDrainStopsAtWatermark(t *testing.T) {
	var got []Ref
	m := NewMerger(2, func(r Ref) { got = append(got, r) })
	m.Append(Ref{T: 4, Proc: 1})
	m.Append(Ref{T: 5, Proc: 1})
	m.Drain(5)
	if len(got) != 1 || got[0].T != 4 {
		t.Fatalf("Drain(5) emitted %+v, want only the T=4 ref", got)
	}
	m.Append(Ref{T: 5, Proc: 0})
	m.Flush()
	if len(got) != 3 || got[1].Proc != 0 || got[2].Proc != 1 {
		t.Errorf("tie at T=5 not broken by processor: %+v", got)
	}
}

func TestCounts(t *testing.T) {
	tr := &Trace{}
	tr.Append(Ref{Op: Read})
	tr.Append(Ref{Op: Write})
	tr.Append(Ref{Op: Write})
	r, w := tr.Counts()
	if r != 1 || w != 2 {
		t.Errorf("Counts = %d, %d", r, w)
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{}
	m := NewMerger(3, tr.Append)
	m.Drain(10)
	m.Flush()
	r, w := tr.Counts()
	if r != 0 || w != 0 || tr.Len() != 0 || m.Peak() != 0 {
		t.Errorf("empty trace not empty")
	}
}
