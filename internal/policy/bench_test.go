package policy

import (
	"testing"
	"time"

	"locusroute/internal/geom"
)

// The enabled/disabled benchmark pairs below show the nil-receiver
// zero-cost discipline: each element's disabled variant runs on a nil
// receiver, so a service built with the elements off pays nothing for
// having the hooks in place. The allocation half of that budget is
// enforced by TestDisabledAllocatesNothing; the time half shows end to
// end, in BENCHMARK.json's locusd.inproc_route_us (a Server.Route call
// through the disabled elements) and reqtrace.overhead_frac.

// TestDisabledAllocatesNothing pins 0 allocs/op for every hook the
// serving path calls on a disabled element: a nil cache and a nil
// scheduler.
func TestDisabledAllocatesNothing(t *testing.T) {
	var (
		cache *Cache
		sched *Sched
		value any = "v"
	)
	for _, tc := range []struct {
		name string
		call func()
	}{
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
