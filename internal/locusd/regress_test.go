package locusd

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/par"
	"locusroute/internal/policy"
)

// testWireAt builds a wire with explicit pins inside the test circuit's
// grid, for requests that must not collide with testWire's cache key.
func testWireAt(id, x0, y0, x1, y1 int) circuit.Wire {
	return circuit.Wire{ID: id, Pins: []circuit.Pin{{X: x0, Y: y0}, {X: x1, Y: y1}}}
}

// TestExpiredCountedOnce pins the expired double-count regression: a
// request whose deadline expires while queued is noticed twice — by its
// own waiter (ctx.Done) and by the shard loop finding the stale entry —
// but must be counted in met.expired exactly once. Both dispatch
// disciplines share the counting path, so both are pinned.
func TestExpiredCountedOnce(t *testing.T) {
	for _, mode := range []struct {
		name   string
		policy policy.Config
	}{
		{"fifo", policy.Config{}},
		{"edf", policy.Config{EDF: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, release := newParkedServer(t, Config{
				Shards: 1,
				Policy: mode.policy,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := s.Route(ctx, RouteRequest{Circuit: "svc", Wire: testWire(1)}); !errors.Is(err, ErrDeadline) {
				t.Fatalf("Route err = %v, want ErrDeadline", err)
			}
			// Let the shard loop at the queue: it now sees the expired
			// entry and, before the fix, counted it again. Close returns
			// once the loop has evaluated everything queued.
			release()
			s.Close()
			if got := counters(s)["expired"]; got != 1 {
				t.Errorf("expired = %d, want exactly 1 (waiter and shard loop double-counted)", got)
			}
		})
	}
}

// TestEDFFullBatchNoStall pins the full-batch stall regression: a burst
// of >= MaxBatch pushes coalesces into the EDF queue's single buffered
// wake, which the loop's empty-queue wait consumes — so a loop that waits
// for a *new* signal before re-checking the depth sleeps with a full
// batch already queued (the old window loop slept its whole 3 s window).
// The loop checks q.Len() before every wait, so dispatch latency must be
// far below that. With the scheduler off the same loop runs over an
// arrival-keyed queue, so the FIFO twin rides along: a backlog deeper
// than MaxBatch drains batch after full batch without stalling, and every
// batch commits in arrival order.
func TestEDFFullBatchNoStall(t *testing.T) {
	const stall = 3 * time.Second

	// MaxBatch 1 is the deterministic degenerate burst: the one Push
	// signal is always consumed by the empty-queue wait.
	t.Run("single-fills-batch", func(t *testing.T) {
		s := newServer(t, Config{
			Shards:   1,
			MaxBatch: 1,
			Policy:   policy.Config{EDF: true},
		})
		// Let the shard loop park in its empty-queue wait first, so the
		// push's one wake signal is provably consumed there.
		time.Sleep(100 * time.Millisecond)
		start := time.Now()
		if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(1)}); err != nil {
			t.Fatalf("Route: %v", err)
		}
		if elapsed := time.Since(start); elapsed > stall/3 {
			t.Errorf("full batch dispatched after %v, want << %v", elapsed, stall)
		}
	})

	t.Run("burst", func(t *testing.T) {
		const n = 4
		s := newServer(t, Config{
			Shards:   1,
			MaxBatch: n,
			Policy:   policy.Config{EDF: true},
		})
		time.Sleep(100 * time.Millisecond)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(i)}); err != nil {
					t.Errorf("Route %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		if elapsed := time.Since(start); elapsed > stall/2 {
			t.Errorf("burst of %d (= MaxBatch) dispatched after %v, want << %v", n, elapsed, stall)
		}
	})

	t.Run("fifo-backlog", func(t *testing.T) {
		const n, batches = 4, 3
		// With the only pool slot held nothing is popped: every arrival
		// piles up in the queue as one backlog of batches*n > MaxBatch.
		s, release := newParkedServer(t, Config{
			Shards:   1,
			MaxBatch: n,
		})
		start := time.Now()
		resps := make([]RouteResponse, n*batches)
		var wg sync.WaitGroup
		for i := range resps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				if resps[i], err = s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(i)}); err != nil {
					t.Errorf("Route %d: %v", i, err)
				}
			}(i)
			// Launch the next arrival only once this one is queued, so
			// arrival order is unambiguous.
			waitQueued(t, s, i+1)
		}
		release()
		wg.Wait()
		if elapsed := time.Since(start); elapsed > stall/2 {
			t.Errorf("backlog of %d drained after %v, want << %v", len(resps), elapsed, stall)
		}
		for i, r := range resps {
			if r.BatchSize != n || r.BatchIndex != i%n {
				t.Errorf("arrival %d: batch_size %d batch_index %d, want %d and %d (arrival order)",
					i, r.BatchSize, r.BatchIndex, n, i%n)
			}
		}
	})
}

// TestDefaultDeadlineAppliedInRoute pins the HTTP-bypass regression: a
// Route call with a plain context must pick up Config.DefaultDeadline
// rather than riding a zero deadline — here the default expires the
// request behind a busy shard instead of letting it wait the shard out.
func TestDefaultDeadlineAppliedInRoute(t *testing.T) {
	s, _ := newParkedServer(t, Config{
		Shards:          1,
		DefaultDeadline: 100 * time.Millisecond,
		Policy:          policy.Config{EDF: true},
	})
	start := time.Now()
	_, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(1)})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("plain-context Route err = %v, want ErrDeadline from the default deadline", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("default deadline fired after %v, want ~100ms (deadline not applied in Route)", elapsed)
	}
}

// TestCacheHitKeepsBreakerHalfOpen pins the fabricated-probe regression:
// a half-open breaker's single probe answered from the result cache
// exercised no evaluation path, so it must release the probe slot
// (staying half-open) rather than report success and close. The pin is
// behavioural: after the cached "probe", one real failure must re-open
// the breaker immediately — half-open state trips on a single failed
// probe, where a (wrongly) closed breaker would need the full
// consecutive-failure threshold again.
func TestCacheHitKeepsBreakerHalfOpen(t *testing.T) {
	const cooldown = 250 * time.Millisecond
	pool := par.New(1)
	s := newServer(t, Config{
		Shards: 1,
		Pool:   pool,
		Policy: policy.Config{
			BreakerFailures: 3,
			BreakerCooldown: cooldown,
			CacheEntries:    8,
		},
	})

	// Warm the cache while the breaker is closed.
	if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(1)}); err != nil {
		t.Fatalf("warmup Route: %v", err)
	}

	// Trip the breaker with three guaranteed expiries (the shard is held
	// busy) on a different wire set (the warm cache must not answer
	// these).
	release := park(t, pool)
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if _, err := s.Route(ctx, RouteRequest{Circuit: "svc", Wire: testWireAt(10+i, 3, 2, 30, 5)}); !errors.Is(err, ErrDeadline) {
			t.Fatalf("expiry %d: err = %v, want ErrDeadline", i, err)
		}
		cancel()
	}
	release()
	if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(2)}); !errors.Is(err, policy.ErrBreakerOpen) {
		t.Fatalf("tripped breaker err = %v, want ErrBreakerOpen", err)
	}

	// After the cooldown, the first arrival is the half-open probe — and
	// it hits the warm cache.
	time.Sleep(cooldown + 100*time.Millisecond)
	resp, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(1)})
	if err != nil {
		t.Fatalf("cached probe err = %v, want nil", err)
	}
	if !resp.Cached {
		t.Fatal("probe request was not served from the cache; the regression path was not exercised")
	}

	// The breaker must still be half-open: a single real failure now
	// re-opens it. A breaker wrongly closed by the cached probe would
	// absorb this failure (streak 1 of 3) and keep admitting.
	park(t, pool)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := s.Route(ctx, RouteRequest{Circuit: "svc", Wire: testWireAt(20, 3, 2, 30, 5)}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("post-probe failure err = %v, want ErrDeadline", err)
	}
	if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(3)}); !errors.Is(err, policy.ErrBreakerOpen) {
		t.Errorf("err after failed half-open probe = %v, want ErrBreakerOpen (cache hit closed the breaker on no evidence)", err)
	}
}

// TestServedWiresNotRetained pins the pooled-scratch leak: the kernel
// caches the sorted copy of an unsorted pin list under the wire's ID,
// validated by the *Wire, and a served request handed it &p.req.Wire —
// a new pointer every time, so the entry was never hit and pinned the
// whole request in a scratch the pool kept alive. Live heap grew by
// 98–484 B per distinct wire ID here (which pooled scratches survive
// varies); it must stay flat. The caller's pin slice is never reordered
// on the way.
func TestServedWiresNotRetained(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	serve := func(id int) {
		pins := []circuit.Pin{{X: 40, Y: 4}, {X: 2, Y: 1}, {X: 20, Y: 3}}
		if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: circuit.Wire{ID: id, Pins: pins}}); err != nil {
			t.Fatalf("route %d: %v", id, err)
		}
		if pins[0] != (circuit.Pin{X: 40, Y: 4}) || pins[1] != (circuit.Pin{X: 2, Y: 1}) {
			t.Fatalf("route %d reordered the caller's pins: %v", id, pins)
		}
	}
	live := func() int64 {
		// One GC leaves pooled scratches in sync.Pool's victim cache, as a
		// busy server's are, so whatever they retain is counted.
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for id := 0; id < 100; id++ {
		serve(id)
	}
	n := 20000
	if raceEnabled {
		n = 5000
	}
	before := live()
	for id := 100; id < 100+n; id++ {
		serve(id)
	}
	if perID := (live() - before) / int64(n); perID > 32 {
		t.Errorf("live heap grew %d B per distinct served wire ID, want ~0 (the scratch pin cache retains requests)", perID)
	}
}
