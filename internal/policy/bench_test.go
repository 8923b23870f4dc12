package policy

import (
	"testing"
	"time"

	"locusroute/internal/geom"
)

// The enabled/disabled benchmark pairs below show the nil-receiver
// zero-cost discipline: every element's disabled variant runs on a nil
// receiver, so a service built with the chain off pays nothing for
// having the hooks in place. The allocation half of that budget is
// enforced by TestDisabledAllocatesNothing; the time half shows end to
// end, in BENCHMARK.json's locusd.inproc_route_us (a Server.Route call
// through the nil chain) and reqtrace.overhead_frac.

var benchReq = Request{Client: "bench", Circuit: "bnrE", Key: 0xdeadbeef}

// TestDisabledAllocatesNothing pins 0 allocs/op for every hook the
// serving path calls on a disabled chain — the nil *Chain itself and
// each nil element.
func TestDisabledAllocatesNothing(t *testing.T) {
	var (
		chain   *Chain
		dl      *Deadline
		limit   *RateLimit
		breaker *Breaker
		cache   *Cache
		sched   *Sched
		now         = time.Now()
		req         = benchReq
		value   any = "v"
		timer       = func(string, time.Duration) {}
	)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Chain.AdmitTimed", func() { _ = chain.AdmitTimed(now, &req, timer) }},
		{"Chain.Lookup", func() { _, _ = chain.Lookup(&req, 1) }},
		{"Chain.Store", func() { chain.Store(&req, 1, value) }},
		{"Chain.Release", func() { chain.Release() }},
		{"Chain.Observe", func() { chain.Observe(now, false) }},
		{"Chain.Sched.NoteScheduled", func() { chain.Sched().NoteScheduled() }},
		{"Deadline.Admit", func() { _ = dl.Admit(now, &req) }},
		{"RateLimit.Admit", func() { _ = limit.Admit(now, &req) }},
		{"Breaker.Admit", func() { _ = breaker.Admit(now, &req) }},
		{"Breaker.Observe", func() { breaker.Observe(now, true) }},
		{"Breaker.Release", func() { breaker.Release() }},
		{"Cache.Get", func() { _, _ = cache.Get("bnrE", 1, 0) }},
		{"Cache.Put", func() { cache.Put("bnrE", 1, 0, value) }},
		{"Sched.NoteScheduled", func() { sched.NoteScheduled() }},
		{"Sched.NoteBatch", func() { sched.NoteBatch() }},
		{"Sched.NoteEviction", func() { sched.NoteEviction() }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.call); allocs != 0 {
			t.Errorf("%s on a nil receiver: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkChainDisabled(b *testing.B) {
	c := New(Config{}) // nil
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Admit(now, &benchReq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainFull(b *testing.B) {
	c := New(Config{
		AdmitFloor: time.Millisecond, RatePerSec: 1e12, Burst: 1 << 30,
		BreakerFailures: 1 << 30, CacheEntries: 1024, EDF: true,
	})
	now := time.Now()
	req := benchReq
	req.Deadline = now.Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Admit(now, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeadlineDisabled(b *testing.B) {
	var d *Deadline
	now := time.Now()
	req := benchReq
	req.Deadline = now.Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Admit(now, &req)
	}
}

func BenchmarkDeadlineEnabled(b *testing.B) {
	d := NewDeadline(time.Millisecond)
	now := time.Now()
	req := benchReq
	req.Deadline = now.Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Admit(now, &req)
	}
}

func BenchmarkRateLimitDisabled(b *testing.B) {
	var l *RateLimit
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.Admit(now, &benchReq)
	}
}

func BenchmarkRateLimitEnabled(b *testing.B) {
	l := NewRateLimit(1e12, 1<<30) // never rejects: measures the bucket path
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.Admit(now, &benchReq)
	}
}

func BenchmarkBreakerDisabled(b *testing.B) {
	var br *Breaker
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = br.Admit(now, &benchReq)
		br.Observe(now, false)
	}
}

func BenchmarkBreakerEnabled(b *testing.B) {
	br := NewBreaker(1<<30, time.Second)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = br.Admit(now, &benchReq)
		br.Observe(now, false)
	}
}

func BenchmarkCacheDisabled(b *testing.B) {
	var c *Cache
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = c.Get("bnrE", 1, 0)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := NewCache(64)
	c.Put("bnrE", 1, 0, "v")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("bnrE", 1, 0); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSchedDisabled(b *testing.B) {
	var s *Sched
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.NoteScheduled()
	}
}

func BenchmarkEDFQueuePushPop(b *testing.B) {
	q := NewEDFQueue()
	base := time.Now()
	items := make([]Item, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range items {
			items[j] = Item{Deadline: base.Add(time.Duration((i*31+j*17)%1000) * time.Millisecond)}
			q.Push(&items[j])
		}
		if got := len(q.PopBatch(len(items))); got != len(items) {
			b.Fatalf("popped %d of %d", got, len(items))
		}
	}
}

func BenchmarkKeyPins(b *testing.B) {
	pins := []geom.Point{{X: 2, Y: 1}, {X: 40, Y: 4}, {X: 17, Y: 3}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = KeyPins(pins)
	}
}
