package reqtrace

import (
	"testing"
)

// BenchmarkDisabledSpan is the pinned disabled-path cost: a nil tracer's
// full span lifecycle must stay allocation-free and in single-digit
// nanoseconds, so leaving the hooks compiled into the serving path is
// free when tracing is off (this package's AllocsPerRun tests pin the 0
// allocs; switching tracing on costs BENCHMARK.json's
// reqtrace.overhead_frac of a serve_read p50).
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Begin("", "bnrE-like", "client", i)
		s.Mark(StageAdmit)
		s.MarkAt(StageQueue, 0)
		s.SetShard(1)
		s.Finish(OutcomeOK, nil)
	}
}

// BenchmarkUnsampledSpan is the enabled-but-unretained path: ids are
// minted and stages marked, but the record is dropped (Sample 0, no
// capture window) — the cost a production deployment pays per request
// with tracing on.
func BenchmarkUnsampledSpan(b *testing.B) {
	tr := New(Options{Sample: 0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Begin("", "bnrE-like", "client", i)
		s.Mark(StageAdmit)
		s.Mark(StageQueue)
		s.Mark(StageRoute)
		s.SetShard(1)
		s.Finish(OutcomeOK, nil)
	}
}

// BenchmarkSampledSpan retains every record into the ring (the most
// expensive configuration: mutex + copy per request).
func BenchmarkSampledSpan(b *testing.B) {
	tr := New(Options{Sample: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Begin("", "bnrE-like", "client", i)
		s.Mark(StageAdmit)
		s.Mark(StageQueue)
		s.Mark(StageRoute)
		s.SetShard(1)
		s.Finish(OutcomeOK, nil)
	}
}
