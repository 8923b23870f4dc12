package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// exactly the stable sort of everything appended. Each stream is appended
// as runs (one to eight references, addresses walking up, down or
// staying put) to one merger and reference by reference to another, and
// the two must also agree on Peak. The step distribution makes equal
// times within a process and across processes common, step 0 alone is
// the zero-cost Perf configuration (every reference at T = 0, every run
// with DT = 0), and some processes stay empty. Five and 64 processes pad
// the winner tree with empty leaves; every other trial starts the clocks
// just below the packing bound and clamps them at it, so the largest T a
// key holds is merged and drained against too, some runs ending on it.
// The last 48 trials append up to 1500 references per process and drain
// rarely, so that one drain emits more than a batch: every sink call
// must carry between one and batchRefs references, and some drains must
// have been split.
func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	strides := []int64{-36, -4, 0, 4, 40}
	split := 0 // drains of the large trials that called the sink more than once
	for trial := 0; trial < 528; trial++ {
		procs := []int{1, 2, 3, 5, 16, 64}[trial%6]
		steps := [][]sim.Time{{0}, {0, 0, 1}, {0, 1, 2, 7}, {1, 3}}[(trial/6)%4]
		large := trial >= 480
		perProc, drainEvery := 40, 3
		if large {
			perProc, drainEvery = 1500, 40
		}
		left := make([]int, procs) // refs each process has yet to append
		for p := range left {
			if rng.Intn(4) > 0 {
				left[p] = rng.Intn(perProc)
			}
		}
		var got, byRef, want []Ref
		calls := 0 // sink calls of the current drain
		m := NewMerger(procs, func(b []Ref) {
			if len(b) == 0 || len(b) > batchRefs {
				t.Fatalf("trial %d: sink called with %d refs, want 1 to %d", trial, len(b), batchRefs)
			}
			calls++
			got = append(got, b...)
		})
		drain := func(f func()) {
			calls = 0
			f()
			if large && calls > 1 {
				split++
			}
		}
		one := NewMerger(procs, func(b []Ref) { byRef = append(byRef, b...) })
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
			// One process runs for a burst of runs, as one routes a wire.
			p := live[rng.Intn(len(live))]
			for n := 1 + rng.Intn(3); n > 0 && left[p] > 0; n-- {
				dt := steps[rng.Intn(len(steps))]
				r := Run{
					T: clock[p] + min(dt, ceiling-clock[p]), DT: dt, Proc: p,
					Addr: 1<<20 + uint64(len(want))*64, Stride: strides[rng.Intn(len(strides))],
					N: 1 + rng.Intn(min(left[p], 8)), Op: Op(rng.Intn(2)),
				}
				if fit := (ceiling - r.T) / max(dt, 1); dt > 0 && fit < sim.Time(r.N-1) {
					r.N = int(fit) + 1 // end the run on the ceiling
				}
				m.AppendRun(r)
				for i := range r.N {
					ref := Ref{T: r.T + sim.Time(i)*dt, Proc: p, Addr: r.Addr + uint64(int64(i)*r.Stride), Op: r.Op}
					one.Append(ref)
					want = append(want, ref)
				}
				clock[p] = want[len(want)-1].T
				left[p] -= r.N
			}
			if rng.Intn(drainEvery) == 0 {
				// Nothing can still be emitted below the lowest clock of
				// the processes with work left; at it, something can.
				low := sim.Time(-1)
				for q, n := range left {
					if n > 0 && (low < 0 || clock[q] < low) {
						low = clock[q]
					}
				}
				if low >= 0 {
					drain(func() { m.Drain(low) })
					one.Drain(low)
				}
			}
		}
		drain(m.Flush)
		one.Flush()
		stableSort(want)
		for _, emitted := range []struct {
			how  string
			refs []Ref
		}{{"as runs", got}, {"one by one", byRef}} {
			if len(emitted.refs) != len(want) {
				t.Fatalf("trial %d, appended %s: %d refs emitted, %d appended", trial, emitted.how, len(emitted.refs), len(want))
			}
			for i := range want {
				if emitted.refs[i] != want[i] {
					t.Fatalf("trial %d (%d procs, steps %v), appended %s: ref %d = %+v, stable sort has %+v",
						trial, procs, steps, emitted.how, i, emitted.refs[i], want[i])
				}
			}
		}
		if m.Peak() != one.Peak() {
			t.Errorf("trial %d: peak %d appended as runs, %d one by one", trial, m.Peak(), one.Peak())
		}
		if m.Peak() > len(want) || (len(want) > 0 && m.Peak() == 0) {
			t.Errorf("trial %d: peak %d with %d refs", trial, m.Peak(), len(want))
		}
	}
	if split == 0 {
		t.Errorf("no drain of the large trials emitted more than a batch")
	}
}

// TestDrainCallsSinkOncePerBatch: a drain hands what it emits to the
// sink in batches, one call per batchRefs references and one for the
// rest, and a drain that emits nothing does not call it.
func TestDrainCallsSinkOncePerBatch(t *testing.T) {
	var calls [][]Ref
	m := NewMerger(2, func(b []Ref) { calls = append(calls, slices.Clone(b)) })
	m.AppendRun(Run{T: 1, DT: 1, Proc: 0, Addr: 8, Stride: -4, N: 3})
	m.Append(Ref{T: 2, Proc: 1, Addr: 100, Op: Write})
	m.Drain(1)
	if len(calls) != 0 {
		t.Fatalf("Drain(1) called the sink with %+v", calls)
	}
	m.Drain(3)
	want := []Ref{{T: 1, Proc: 0, Addr: 8}, {T: 2, Proc: 0, Addr: 4}, {T: 2, Proc: 1, Addr: 100, Op: Write}}
	if len(calls) != 1 || !slices.Equal(calls[0], want) {
		t.Fatalf("Drain(3) called the sink with %+v, want one batch %+v", calls, want)
	}
	m.Flush()
	if len(calls) != 2 || !slices.Equal(calls[1], []Ref{{T: 3, Proc: 0, Addr: 0}}) {
		t.Errorf("Flush called the sink with %+v", calls[1:])
	}
	// Two full batches and three references more: the sink sees 512, 512
	// and 3, each batch continuing where the last one stopped.
	calls = nil
	m.AppendRun(Run{T: 10, DT: 1, Proc: 1, Addr: 0, Stride: 4, N: 2*batchRefs + 3})
	m.Flush()
	if len(calls) != 3 || len(calls[0]) != batchRefs || len(calls[1]) != batchRefs || len(calls[2]) != 3 {
		t.Fatalf("Flush of %d refs called the sink %d times", 2*batchRefs+3, len(calls))
	}
	for i, r := range slices.Concat(calls...) {
		if want := (Ref{T: 10 + sim.Time(i), Proc: 1, Addr: uint64(4 * i)}); r != want {
			t.Fatalf("ref %d of the split flush is %+v, want %+v", i, r, want)
		}
	}
}

// TestDrainStopsAtWatermark pins the strict bound: a reference at the
// watermark stays buffered, because a process sitting at that time may
// still emit one that sorts before it.
func TestDrainStopsAtWatermark(t *testing.T) {
	var got []Ref
	m := NewMerger(2, func(b []Ref) { got = append(got, b...) })
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

// TestAppendRejectsMisorderedTimes pins AppendRun's contract: a
// reference earlier than its stream's previous one (a run's first against
// the last of the run before), a negative time (a packed key would sort
// it last), a time beyond the packing bound — a run's last reference
// included — a negative step and an empty run each panic, naming the
// processor, instead of misordering the merge; a count, step or stride
// beyond 32 bits panics instead of being truncated.
func TestAppendRejectsMisorderedTimes(t *testing.T) {
	bound := NewMerger(3, nil).maxT
	for _, tc := range []struct {
		name string
		runs []Run
		want string
	}{
		{"decreasing", []Run{{T: 7, Proc: 2, N: 1}, {T: 7, Proc: 2, N: 1}, {T: 6, Proc: 2, N: 1}},
			"trace: proc 2 appended T=6 after T=7 "},
		{"decreasing after a run", []Run{{T: 10, DT: 5, Proc: 1, N: 3}, {T: 19, Proc: 1, N: 1}},
			"trace: proc 1 appended T=19 after T=20 "},
		{"negative", []Run{{T: 5, Proc: 0, N: 1}, {T: -1, Proc: 1, N: 1}}, "trace: proc 1 appended T=-1 after T=0 "},
		{"beyond bound", []Run{{T: bound, Proc: 0, N: 1}, {T: bound + 1, Proc: 0, N: 1}},
			fmt.Sprintf("trace: proc 0 appended T=%d after T=%d ", bound+1, bound)},
		{"run ending beyond bound", []Run{{T: bound - 2, DT: 1, Proc: 2, N: 4}},
			fmt.Sprintf("trace: proc 2 appended T=%d after T=0 ", bound+1)},
		{"negative step", []Run{{T: 5, DT: -1, Proc: 0, N: 2}}, "trace: proc 0 appended a run of 2 refs -1 apart"},
		{"empty run", []Run{{T: 5, Proc: 1}}, "trace: proc 1 appended a run of 0 refs 0 apart"},
		{"count beyond 32 bits", []Run{{T: 5, Proc: 0, N: math.MaxInt32 + 1}},
			"trace: proc 0 appended a run of 2147483648 refs 0 apart, stride 0"},
		{"step beyond 32 bits", []Run{{T: 5, DT: math.MaxInt32 + 1, Proc: 1, N: 2}},
			"trace: proc 1 appended a run of 2 refs 2147483648 apart, stride 0"},
		{"stride beyond 32 bits", []Run{{T: 5, Proc: 2, Stride: math.MaxInt32 + 1, N: 2}},
			"trace: proc 2 appended a run of 2 refs 0 apart, stride 2147483648"},
		{"stride below 32 bits", []Run{{T: 5, Proc: 2, Stride: math.MinInt32 - 4, N: 2}},
			"trace: proc 2 appended a run of 2 refs 0 apart, stride -2147483652"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMerger(3, func([]Ref) {})
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, tc.want) {
					t.Errorf("panic %q, want prefix %q", msg, tc.want)
				}
			}()
			for _, r := range tc.runs {
				m.AppendRun(r)
			}
		})
	}
}

// TestDrainAtThePackingBound drains references at the largest T a key
// holds, one the last of a run: a watermark equal to it keeps them, any
// watermark above it — whose own key would not fit — emits them.
func TestDrainAtThePackingBound(t *testing.T) {
	var got []Ref
	m := NewMerger(16, func(b []Ref) { got = append(got, b...) })
	m.AppendRun(Run{T: m.maxT - 6, DT: 3, Proc: 15, N: 3})
	m.Append(Ref{T: m.maxT, Proc: 3})
	m.Drain(m.maxT)
	if len(got) != 2 || got[0].T != m.maxT-6 || got[1].T != m.maxT-3 {
		t.Fatalf("Drain(bound) emitted %+v, want proc 15's first two refs", got)
	}
	m.Drain(m.maxT + 1)
	if len(got) != 4 || got[2].Proc != 3 || got[3].Proc != 15 || got[3].T != m.maxT {
		t.Errorf("Drain(bound+1) emitted %+v, want procs 3 then 15 at the bound", got[2:])
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
	m := NewMerger(3, tr.AppendBatch)
	m.Drain(10)
	m.Flush()
	r, w := tr.Counts()
	if r != 0 || w != 0 || tr.Len() != 0 || m.Peak() != 0 {
		t.Errorf("empty trace not empty")
	}
}
