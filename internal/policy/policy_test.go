package policy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"locusroute/internal/geom"
)

// t0 is a fixed base instant: the elements take explicit clocks, so the
// tests never sleep.
var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// TestConfigEnabled pins the Config-to-element mapping: the zero Config
// builds no element, and each field enables exactly its own.
func TestConfigEnabled(t *testing.T) {
	for _, tc := range []struct {
		cfg        Config
		cache, edf bool
	}{
		{Config{}, false, false},
		{Config{CacheEntries: 1}, true, false},
		{Config{EDF: true}, false, true},
		{Config{CacheEntries: 1, EDF: true}, true, true},
	} {
		cache, sched := New(tc.cfg)
		if (cache != nil) != tc.cache || (sched != nil) != tc.edf {
			t.Errorf("New(%+v) = cache %v, sched %v; want cache %v, sched %v",
				tc.cfg, cache != nil, sched != nil, tc.cache, tc.edf)
		}
	}
}

// TestNilChainZeroCost pins the nil-receiver contract: the disabled
// chain is a nil cache and a nil scheduler, and every call on them is a
// no-op.
func TestNilChainZeroCost(t *testing.T) {
	cache, sched := New(Config{})
	if cache != nil || sched != nil {
		t.Fatal("New(zero Config) built an element")
	}
	cache.Put("c", 1, 0, "v")
	if _, ok := cache.Get("c", 1, 0); ok {
		t.Error("nil cache hit")
	}
	if cache.Len() != 0 {
		t.Error("nil cache holds entries")
	}
	sched.NoteScheduled()
	sched.NoteBatch()
	sched.NoteEviction()
	if Elements(cache, sched) != nil {
		t.Error("Elements of the disabled chain != nil")
	}
}

func TestChainElementsOrder(t *testing.T) {
	var names []string
	for _, el := range Elements(New(Config{CacheEntries: 1, EDF: true})) {
		names = append(names, el.Name())
	}
	if want := []string{"cache", "edf"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("Elements = %v, want %v", names, want)
	}
}

func TestCacheHitMissEpoch(t *testing.T) {
	c := NewCache(2)
	c.Put("bnrE", 42, 0, "v0")
	if v, ok := c.Get("bnrE", 42, 0); !ok || v != "v0" {
		t.Errorf("Get same epoch = %v, %v; want v0, true", v, ok)
	}
	if _, ok := c.Get("bnrE", 42, 1); ok {
		t.Error("Get after epoch bump hit stale entry")
	}
	if _, ok := c.Get("MDC", 42, 0); ok {
		t.Error("Get different circuit hit")
	}
	// Overwrite in place.
	c.Put("bnrE", 42, 0, "v1")
	if v, _ := c.Get("bnrE", 42, 0); v != "v1" {
		t.Errorf("overwritten value = %v, want v1", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len after overwrite = %d, want 1", c.Len())
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("x", 1, 0, 1)
	c.Put("x", 2, 0, 2)
	c.Put("x", 3, 0, 3) // evicts key 1
	if _, ok := c.Get("x", 1, 0); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Get("x", 2, 0); !ok {
		t.Error("second entry evicted early")
	}
	if _, ok := c.Get("x", 3, 0); !ok {
		t.Error("newest entry missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	counters := map[string]int64{}
	for _, cc := range c.Counters() {
		counters[cc.Name] = cc.Value
	}
	if counters["evictions_total"] != 1 {
		t.Errorf("evictions_total = %d, want 1", counters["evictions_total"])
	}
}

func TestKeyPins(t *testing.T) {
	a := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	b := []geom.Point{{X: 3, Y: 4}, {X: 1, Y: 2}}
	if KeyPins(a) == KeyPins(b) {
		t.Error("pin order does not affect the key")
	}
	if KeyPins(a) != KeyPins([]geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}) {
		t.Error("identical pin sets hash differently")
	}
	if KeyPins(nil) != KeyPins([]geom.Point{}) {
		t.Error("empty pin sets hash differently")
	}
}

func TestDeadlineLess(t *testing.T) {
	early, late := t0, t0.Add(time.Second)
	var zero time.Time
	cases := []struct {
		a, b time.Time
		want bool
	}{
		{early, late, true},
		{late, early, false},
		{early, early, false},
		{zero, early, false}, // no deadline is least critical
		{early, zero, true},
		{zero, zero, false},
	}
	for _, c := range cases {
		if got := DeadlineLess(c.a, c.b); got != c.want {
			t.Errorf("DeadlineLess(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestEDFQueueOrder pins the tentpole ordering property: PopBatch
// returns items earliest-deadline-first regardless of arrival order,
// with no-deadline items last.
func TestEDFQueueOrder(t *testing.T) {
	q := NewEDFQueue()
	deadlines := []int{300, 100, 0, 200, 50} // ms; 0 = none
	for i, ms := range deadlines {
		var d time.Time
		if ms > 0 {
			d = t0.Add(time.Duration(ms) * time.Millisecond)
		}
		q.Push(&Item{Deadline: d, Value: i})
	}
	batch := q.PopBatch(10)
	var got []int
	for _, it := range batch {
		got = append(got, it.Value.(int))
	}
	want := []int{4, 1, 3, 0, 2} // 50ms, 100ms, 200ms, 300ms, none
	if len(got) != len(want) {
		t.Fatalf("PopBatch = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PopBatch order = %v, want %v", got, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len after full drain = %d, want 0", q.Len())
	}
	if q.PopBatch(1) != nil {
		t.Error("PopBatch on empty queue != nil")
	}
}

// TestEDFQueueTiesPopInPushOrder pins the tiebreak that lets one queue
// serve arrival-order dispatch: items with equal deadlines (here the
// same instant, and the all-zero "no deadline" case) pop in push order,
// across partial pops — a bare binary heap returns 0, n-1, n-2, ...
func TestEDFQueueTiesPopInPushOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Time
	}{{"same-instant", t0.Add(time.Second)}, {"no-deadline", time.Time{}}} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewEDFQueue()
			const n = 9
			for i := 0; i < n; i++ {
				q.Push(&Item{Deadline: tc.deadline, Value: i})
			}
			var got []int
			for _, it := range q.PopBatch(4) {
				got = append(got, it.Value.(int))
			}
			// A later push with the same key queues behind the backlog,
			// and an earlier key still jumps it.
			q.Push(&Item{Deadline: tc.deadline, Value: n})
			q.Push(&Item{Deadline: t0, Value: -1})
			for _, it := range q.PopBatch(n) {
				got = append(got, it.Value.(int))
			}
			want := []int{0, 1, 2, 3, -1, 4, 5, 6, 7, 8, 9}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("pop order = %v, want %v", got, want)
			}
		})
	}
}

func TestEDFQueuePartialBatch(t *testing.T) {
	q := NewEDFQueue()
	for i := 0; i < 5; i++ {
		q.Push(&Item{Deadline: t0.Add(time.Duration(i) * time.Millisecond), Value: i})
	}
	batch := q.PopBatch(3)
	if len(batch) != 3 || batch[0].Value != 0 || batch[2].Value != 2 {
		t.Fatalf("PopBatch(3) = %v", batch)
	}
	if q.Len() != 2 {
		t.Errorf("Len after partial drain = %d, want 2", q.Len())
	}
}

// TestEvictSlackest pins the shedding rule: the evicted item is the
// least-critical one, and only when strictly less critical than the
// preemptor.
func TestEvictSlackest(t *testing.T) {
	q := NewEDFQueue()
	q.Push(&Item{Deadline: t0.Add(100 * time.Millisecond), Value: "tight"})
	q.Push(&Item{Deadline: t0.Add(900 * time.Millisecond), Value: "slack"})
	q.Push(&Item{Value: "none"}) // no deadline: slackest of all

	d, ok := q.SlackestDeadline()
	if !ok || !d.IsZero() {
		t.Fatalf("SlackestDeadline = %v, %v; want zero time, true", d, ok)
	}
	// A preemptor with any real deadline beats the no-deadline entry.
	it := q.EvictSlackest(t0.Add(time.Second))
	if it == nil || it.Value != "none" {
		t.Fatalf("EvictSlackest evicted %v, want the no-deadline item", it)
	}
	// Now the 900ms item is slackest; a 500ms preemptor beats it.
	it = q.EvictSlackest(t0.Add(500 * time.Millisecond))
	if it == nil || it.Value != "slack" {
		t.Fatalf("EvictSlackest evicted %v, want the 900ms item", it)
	}
	// A 500ms preemptor does NOT beat the remaining 100ms item.
	if it := q.EvictSlackest(t0.Add(500 * time.Millisecond)); it != nil {
		t.Fatalf("EvictSlackest evicted %v against a more critical queue", it.Value)
	}
	// A no-deadline preemptor never evicts anything with a deadline.
	if it := q.EvictSlackest(time.Time{}); it != nil {
		t.Fatalf("zero-deadline preemptor evicted %v", it.Value)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
	// The evicted items must be gone from later pops.
	batch := q.PopBatch(10)
	if len(batch) != 1 || batch[0].Value != "tight" {
		t.Fatalf("final PopBatch = %v, want only the tight item", batch)
	}
}

func TestEDFQueueSignal(t *testing.T) {
	q := NewEDFQueue()
	q.Push(&Item{Deadline: t0})
	select {
	case <-q.C():
	default:
		t.Fatal("Push did not signal the wake channel")
	}
	// The channel is one-buffered: many pushes, one pending signal.
	q.Push(&Item{Deadline: t0})
	q.Push(&Item{Deadline: t0})
	select {
	case <-q.C():
	default:
		t.Fatal("second signal missing")
	}
	select {
	case <-q.C():
		t.Fatal("wake channel buffered more than one signal")
	default:
	}
	// Signal re-arms without a push.
	q.Signal()
	select {
	case <-q.C():
	default:
		t.Fatal("Signal did not re-arm the channel")
	}
}

// TestEDFQueueConcurrent hammers the queue from pushers, poppers and
// evictors at once; run under -race this pins the locking discipline.
// Every pushed item must be consumed exactly once across the two
// removal paths.
func TestEDFQueueConcurrent(t *testing.T) {
	q := NewEDFQueue()
	const pushers, perPusher = 4, 200
	total := pushers * perPusher

	var consumed sync.Map
	count := func(it *Item) {
		if _, dup := consumed.LoadOrStore(it, true); dup {
			t.Error("item consumed twice")
		}
	}

	var push sync.WaitGroup
	for p := 0; p < pushers; p++ {
		push.Add(1)
		go func(p int) {
			defer push.Done()
			for i := 0; i < perPusher; i++ {
				// Every deadline is after t0, so the evictor's t0
				// preemptor can always evict whatever is slackest.
				q.Push(&Item{Deadline: t0.Add(time.Duration(p*perPusher+i+1) * time.Microsecond), Value: p})
			}
		}(p)
	}

	done := make(chan struct{})
	var drain sync.WaitGroup
	drain.Add(2)
	go func() {
		defer drain.Done()
		for {
			for _, it := range q.PopBatch(16) {
				count(it)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	go func() {
		defer drain.Done()
		for {
			if it := q.EvictSlackest(t0); it != nil {
				count(it)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	push.Wait()
	// Let the consumers drain the remainder, then check exactly-once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		consumed.Range(func(_, _ any) bool { n++; return true })
		if n == total && q.Len() == 0 {
			break
		}
		if time.Now().After(deadline) {
			close(done)
			drain.Wait()
			t.Fatalf("consumed %d of %d items before timeout (queue len %d)", n, total, q.Len())
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	drain.Wait()
}
