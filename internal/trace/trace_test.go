package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
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
// and some processes stay empty. Five and 64 processes pad the winner
// tree with empty leaves; every other trial starts the clocks just below
// the packing bound and clamps them at it, so the largest T a key holds
// is merged and drained against too.
func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 480; trial++ {
		procs := []int{1, 2, 3, 5, 16, 64}[trial%6]
		steps := [][]sim.Time{{0}, {0, 0, 1}, {0, 1, 2, 7}, {1, 3}}[(trial/6)%4]
		left := make([]int, procs) // refs each process has yet to append
		for p := range left {
			if rng.Intn(4) > 0 {
				left[p] = rng.Intn(40)
			}
		}
		var got, want []Ref
		m := NewMerger(procs, func(r Ref) { got = append(got, r) })
		clock := make([]sim.Time, procs)
		ceiling := sim.Time(math.MaxInt64)
		if (trial/24)%2 == 1 {
			ceiling = m.maxT
			for p := range clock {
				clock[p] = m.maxT - 100
			}
		}
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
				clock[p] = min(clock[p]+steps[rng.Intn(len(steps))], ceiling)
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

// TestAppendRejectsMisorderedTimes pins Append's contract: a reference
// earlier than its stream's previous one, a negative time (a packed key
// would sort it last) and a time beyond the packing bound each panic,
// naming the processor and both times, instead of misordering the merge.
func TestAppendRejectsMisorderedTimes(t *testing.T) {
	bound := NewMerger(3, nil).maxT
	for _, tc := range []struct {
		name string
		refs []Ref
		want string
	}{
		{"decreasing", []Ref{{T: 7, Proc: 2}, {T: 7, Proc: 2}, {T: 6, Proc: 2}}, "trace: proc 2 appended T=6 after T=7 "},
		{"negative", []Ref{{T: 5, Proc: 0}, {T: -1, Proc: 1}}, "trace: proc 1 appended T=-1 after T=0 "},
		{"beyond bound", []Ref{{T: bound, Proc: 0}, {T: bound + 1, Proc: 0}},
			fmt.Sprintf("trace: proc 0 appended T=%d after T=%d ", bound+1, bound)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMerger(3, func(Ref) {})
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, tc.want) {
					t.Errorf("panic %q, want prefix %q", msg, tc.want)
				}
			}()
			for _, r := range tc.refs {
				m.Append(r)
			}
		})
	}
}

// TestDrainAtThePackingBound drains references at the largest T a key
// holds: a watermark equal to it keeps them, any watermark above it —
// whose own key would not fit — emits them.
func TestDrainAtThePackingBound(t *testing.T) {
	var got []Ref
	m := NewMerger(16, func(r Ref) { got = append(got, r) })
	m.Append(Ref{T: m.maxT, Proc: 15})
	m.Append(Ref{T: m.maxT, Proc: 3})
	m.Drain(m.maxT)
	if len(got) != 0 {
		t.Fatalf("Drain(bound) emitted %+v", got)
	}
	m.Drain(m.maxT + 1)
	if len(got) != 2 || got[0].Proc != 3 || got[1].Proc != 15 {
		t.Errorf("Drain(bound+1) emitted %+v, want procs 3 then 15", got)
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
