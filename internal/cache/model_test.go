package cache

import (
	"math/rand"
	"testing"

	"locusroute/internal/trace"
)

// model is the trivially-correct reference the flat simulators are held
// to: one map per processor from line to state, one set per line of the
// processors that ever filled it, and (when capacity > 0) a slice per
// processor holding its resident lines from least to most recently used.
type model struct {
	lineSize, capacity int
	state              []map[uint64]lineState
	resident           [][]uint64
	filled             map[uint64]map[int]bool
	traffic            Traffic
	refetch, evictions int64
}

func newModel(procs, lineSize, capacity int) *model {
	m := &model{lineSize: lineSize, capacity: capacity, filled: map[uint64]map[int]bool{},
		state: make([]map[uint64]lineState, procs), resident: make([][]uint64, procs)}
	for p := range m.state {
		m.state[p] = map[uint64]lineState{}
	}
	return m
}

func (m *model) access(r trace.Ref) {
	m.traffic.Refs++
	line := r.Addr / uint64(m.lineSize)
	mine := m.state[r.Proc]
	if mine[line] == invalid {
		for p, theirs := range m.state {
			if p != r.Proc && theirs[line] == dirty {
				theirs[line] = shared
				m.traffic.Writebacks++
				m.traffic.WritebackBytes += int64(m.lineSize)
			}
		}
		m.traffic.Fills++
		m.traffic.FillBytes += int64(m.lineSize)
		if m.filled[line] == nil {
			m.filled[line] = map[int]bool{}
		}
		if m.filled[line][r.Proc] {
			m.refetch += int64(m.lineSize)
		}
		m.filled[line][r.Proc] = true
		mine[line] = shared
	}
	if m.capacity > 0 {
		m.touch(r.Proc, line)
	}
	if r.Op == trace.Write && mine[line] != dirty {
		m.traffic.WriteWords++
		m.traffic.WriteWordBytes += WordSize
		for p, theirs := range m.state {
			if p != r.Proc && theirs[line] != invalid {
				theirs[line] = invalid
				m.traffic.Invalidations++
			}
		}
		mine[line] = dirty
	}
}

// touch makes line the most recently used of proc's resident lines (an
// invalidated line stays resident) and evicts the least recent beyond
// capacity, writing it back if dirty.
func (m *model) touch(proc int, line uint64) {
	res := m.resident[proc]
	for i, l := range res {
		if l == line {
			res = append(res[:i], res[i+1:]...)
			break
		}
	}
	res = append(res, line)
	for len(res) > m.capacity {
		if m.state[proc][res[0]] == dirty {
			m.traffic.Writebacks++
			m.traffic.WritebackBytes += int64(m.lineSize)
		}
		delete(m.state[proc], res[0])
		res = res[1:]
		m.evictions++
	}
	m.resident[proc] = res
}

// randomRefs is a write-heavy reference stream over a small hot region
// (so lines are shared, invalidated and refetched constantly), a sparse
// region, and one word far above both, like the traced router's loop
// counter at 1<<40.
func randomRefs(rng *rand.Rand, procs, n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		var addr uint64
		switch k := rng.Intn(10); {
		case k < 7:
			addr = uint64(rng.Intn(64)) * WordSize
		case k < 9:
			addr = uint64(rng.Intn(1<<14)) * WordSize
		default:
			addr = 1 << 40
		}
		refs[i] = trace.Ref{Proc: rng.Intn(procs), Addr: addr, Op: trace.Op(rng.Intn(2))}
	}
	return refs
}

// TestSimulatorsMatchModel runs random streams through the flat
// simulators and the map-based model and requires identical accounting
// after every reference count checked, for processor counts on both
// sides of the 64-bit "ever held" word and every line size of Table 3
// and between.
func TestSimulatorsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, procs := range []int{1, 3, 16, 70} {
		for _, lineSize := range []int{4, 8, 12, 16, 32} {
			refs := randomRefs(rng, procs, 4000)

			inf, err := New(procs, lineSize)
			if err != nil {
				t.Fatal(err)
			}
			want := newModel(procs, lineSize, 0)
			for i, r := range refs {
				inf.Access(r)
				want.access(r)
				if inf.Traffic() != want.traffic || inf.refetchBytes != want.refetch {
					t.Fatalf("%d procs, %dB lines, ref %d %+v: simulator %+v refetch %d, model %+v refetch %d",
						procs, lineSize, i, r, inf.Traffic(), inf.refetchBytes, want.traffic, want.refetch)
				}
			}

			capacity := 1 + rng.Intn(24)
			fin, err := NewFinite(procs, lineSize, capacity)
			if err != nil {
				t.Fatal(err)
			}
			want = newModel(procs, lineSize, capacity)
			for i, r := range refs {
				fin.Access(r)
				want.access(r)
				if fin.Traffic() != want.traffic || fin.evictions != want.evictions || fin.refetchBytes != want.refetch {
					t.Fatalf("%d procs, %dB lines, %d-line caches, ref %d %+v: simulator %+v evictions %d, model %+v evictions %d",
						procs, lineSize, capacity, i, r, fin.Traffic(), fin.evictions, want.traffic, want.evictions)
				}
			}
		}
	}
}
