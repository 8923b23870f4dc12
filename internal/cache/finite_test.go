package cache

import (
	"testing"

	"locusroute/internal/trace"
)

func TestFiniteValidation(t *testing.T) {
	if _, err := NewFinite(0, 8, 4); err == nil {
		t.Errorf("zero procs must fail")
	}
	if _, err := NewFinite(2, 7, 4); err == nil {
		t.Errorf("bad line size must fail")
	}
	if _, err := NewFinite(2, 8, 0); err == nil {
		t.Errorf("zero capacity must fail")
	}
}

func TestFiniteMatchesInfiniteWhenLarge(t *testing.T) {
	// With capacity above the working set, the finite cache behaves
	// exactly like the infinite one.
	tr := &trace.Trace{}
	for i := 0; i < 200; i++ {
		tr.Refs = append(tr.Refs, trace.Ref{Proc: i % 3, Addr: uint64((i * 4) % 128), Op: trace.Write})
		tr.Refs = append(tr.Refs, trace.Ref{Proc: (i + 1) % 3, Addr: uint64((i * 4) % 128), Op: trace.Read})
	}
	inf, err := Replay(tr, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := ReplayFinite(tr, 3, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Bytes() != fin.Bytes() {
		t.Errorf("large finite cache traffic %d != infinite %d", fin.Bytes(), inf.Bytes())
	}
}

func TestFiniteCapacityMissesAddTraffic(t *testing.T) {
	// One processor streaming over a working set larger than its cache:
	// every revisit is a capacity miss in the small cache, a hit in the
	// infinite one.
	tr := &trace.Trace{}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 64; i++ {
			tr.Refs = append(tr.Refs, trace.Ref{Proc: 0, Addr: uint64(i * 8), Op: trace.Read})
		}
	}
	inf, _ := Replay(tr, 1, 8)
	small, _ := ReplayFinite(tr, 1, 8, 8)
	if small.Bytes() <= inf.Bytes() {
		t.Errorf("small cache (%d B) must exceed infinite (%d B)", small.Bytes(), inf.Bytes())
	}
	if small.Fills != 3*64 {
		t.Errorf("every access must miss in the tiny cache: fills=%d", small.Fills)
	}
}

func TestFiniteDirtyEvictionWritesBack(t *testing.T) {
	s, _ := NewFinite(1, 8, 2)
	// Write three distinct lines: the first (dirty) is evicted with a
	// writeback.
	s.Access(trace.Ref{Proc: 0, Addr: 0, Op: trace.Write})
	s.Access(trace.Ref{Proc: 0, Addr: 8, Op: trace.Write})
	s.Access(trace.Ref{Proc: 0, Addr: 16, Op: trace.Write})
	tr := s.Traffic()
	if s.evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.evictions)
	}
	if tr.Writebacks != 1 || tr.WritebackBytes != 8 {
		t.Errorf("dirty eviction must write back: %+v", tr)
	}
}

func TestFiniteLRUKeepsHotLine(t *testing.T) {
	s, _ := NewFinite(1, 8, 2)
	s.Access(trace.Ref{Proc: 0, Addr: 0, Op: trace.Read})  // A
	s.Access(trace.Ref{Proc: 0, Addr: 8, Op: trace.Read})  // B
	s.Access(trace.Ref{Proc: 0, Addr: 0, Op: trace.Read})  // A again (hot)
	s.Access(trace.Ref{Proc: 0, Addr: 16, Op: trace.Read}) // C evicts B
	fills := s.Traffic().Fills
	s.Access(trace.Ref{Proc: 0, Addr: 0, Op: trace.Read}) // A must still hit
	if s.Traffic().Fills != fills {
		t.Errorf("hot line was evicted by LRU")
	}
	s.Access(trace.Ref{Proc: 0, Addr: 8, Op: trace.Read}) // B must miss
	if s.Traffic().Fills != fills+1 {
		t.Errorf("cold line should have been evicted")
	}
}

func TestFiniteCoherenceStillWorks(t *testing.T) {
	s, _ := NewFinite(2, 8, 16)
	s.Access(trace.Ref{Proc: 0, Addr: 0, Op: trace.Read})
	s.Access(trace.Ref{Proc: 1, Addr: 0, Op: trace.Write})
	tr := s.Traffic()
	if tr.Invalidations != 1 {
		t.Errorf("write must invalidate the other copy: %+v", tr)
	}
	// Processor 0 rereads: writeback by 1 + refetch.
	before := tr.Bytes()
	s.Access(trace.Ref{Proc: 0, Addr: 0, Op: trace.Read})
	if s.Traffic().Bytes() != before+8+8 {
		t.Errorf("refetch accounting wrong: %+v", s.Traffic())
	}
}
