package cache

import (
	"testing"

	"locusroute/internal/trace"
)

func ref(proc int, addr uint64, op trace.Op) trace.Ref {
	return trace.Ref{Proc: proc, Addr: addr, Op: op}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Errorf("zero processors must fail")
	}
	if _, err := New(4, 0); err == nil {
		t.Errorf("zero line size must fail")
	}
	if _, err := New(4, 6); err == nil {
		t.Errorf("non-multiple-of-word line size must fail")
	}
	if _, err := New(4, 8); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestColdReadMiss(t *testing.T) {
	s, _ := New(2, 8)
	s.Access(ref(0, 0, trace.Read))
	tr := s.Traffic()
	if tr.Fills != 1 || tr.FillBytes != 8 {
		t.Errorf("cold miss: %+v", tr)
	}
	// Second read to the same line: hit, no traffic.
	s.Access(ref(0, 4, trace.Read))
	if s.Traffic().Bytes() != 8 {
		t.Errorf("hit must not add traffic: %+v", s.Traffic())
	}
}

func TestFirstWriteToCleanCausesWordWrite(t *testing.T) {
	s, _ := New(2, 8)
	s.Access(ref(0, 0, trace.Read))  // fill clean
	s.Access(ref(0, 0, trace.Write)) // word write, line -> dirty
	tr := s.Traffic()
	if tr.WriteWords != 1 || tr.WriteWordBytes != WordSize {
		t.Errorf("word write missing: %+v", tr)
	}
	// Subsequent writes to the dirty line are free.
	s.Access(ref(0, 4, trace.Write))
	if s.Traffic().Bytes() != 8+WordSize {
		t.Errorf("write to dirty line must be free: %+v", s.Traffic())
	}
}

func TestWriteInvalidatesOtherCopies(t *testing.T) {
	s, _ := New(3, 8)
	s.Access(ref(0, 0, trace.Read))
	s.Access(ref(1, 0, trace.Read))
	s.Access(ref(2, 0, trace.Read))
	s.Access(ref(0, 0, trace.Write))
	tr := s.Traffic()
	if tr.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", tr.Invalidations)
	}
	// Processor 1 rereads: refetch fill (plus writeback of 0's dirty
	// copy).
	before := s.Traffic().Bytes()
	s.Access(ref(1, 0, trace.Read))
	tr = s.Traffic()
	if tr.Bytes() != before+8+8 {
		t.Errorf("refetch must cost writeback + fill: %+v", tr)
	}
	if tr.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", tr.Writebacks)
	}
	if s.refetchBytes != 8 {
		t.Errorf("refetch bytes = %d, want 8", s.refetchBytes)
	}
}

func TestWriteMissFillsThenWrites(t *testing.T) {
	s, _ := New(2, 16)
	s.Access(ref(0, 0, trace.Write))
	tr := s.Traffic()
	if tr.FillBytes != 16 || tr.WriteWordBytes != WordSize {
		t.Errorf("write miss: %+v", tr)
	}
}

func TestPrivateDataNoCoherenceTraffic(t *testing.T) {
	// Two processors touching disjoint lines: only cold fills and word
	// writes, no invalidations, no writebacks, no refetches.
	s, _ := New(2, 8)
	for i := 0; i < 10; i++ {
		s.Access(ref(0, uint64(i*8), trace.Read))
		s.Access(ref(0, uint64(i*8), trace.Write))
		s.Access(ref(1, uint64(1000+i*8), trace.Read))
		s.Access(ref(1, uint64(1000+i*8), trace.Write))
	}
	tr := s.Traffic()
	if tr.Invalidations != 0 || tr.Writebacks != 0 || s.refetchBytes != 0 {
		t.Errorf("private data caused coherence traffic: %+v", tr)
	}
}

func TestLargerLinesMoreTrafficUnderSharing(t *testing.T) {
	// The paper's Table 3 shape: with fine-grain interleaved sharing,
	// doubling the line size increases total traffic.
	mkTrace := func() *trace.Trace {
		tr := &trace.Trace{}
		for i := 0; i < 500; i++ {
			addr := uint64((i * 4) % 256)
			tr.Refs = append(tr.Refs, trace.Ref{Proc: i % 4, Addr: addr, Op: trace.Write})
			tr.Refs = append(tr.Refs, trace.Ref{Proc: (i + 1) % 4, Addr: addr, Op: trace.Read})
		}
		return tr
	}
	var last int64 = -1
	for _, ls := range []int{4, 8, 16, 32} {
		tr, err := Replay(mkTrace(), 4, ls)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Bytes() <= last {
			t.Errorf("line %d: traffic %d did not grow from %d", ls, tr.Bytes(), last)
		}
		last = tr.Bytes()
	}
}

func TestPingPongWriteSharing(t *testing.T) {
	// Two processors alternately writing one word: each write after the
	// first by a processor is to an invalidated line -> writeback +
	// fill + word write every time.
	s, _ := New(2, 8)
	for i := 0; i < 4; i++ {
		s.Access(ref(0, 0, trace.Write))
		s.Access(ref(1, 0, trace.Write))
	}
	tr := s.Traffic()
	if tr.Invalidations < 7 {
		t.Errorf("ping-pong must invalidate every round: %+v", tr)
	}
	if s.AttributedWriteFraction() < 0.8 {
		t.Errorf("write-dominated workload: attributed write fraction = %f",
			s.AttributedWriteFraction())
	}
}

func TestReplayCountsRefs(t *testing.T) {
	tr := &trace.Trace{Refs: []trace.Ref{ref(0, 0, trace.Read), ref(1, 8, trace.Write)}}
	got, err := Replay(tr, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Refs != 2 {
		t.Errorf("Refs = %d, want 2", got.Refs)
	}
}

func TestAccessPanicsOnBadProc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range processor must panic")
		}
	}()
	s, _ := New(2, 8)
	s.Access(ref(5, 0, trace.Read))
}
