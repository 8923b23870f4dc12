package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestKernelAtOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(20, func() { order = append(order, 2) })
	k.At(10, func() { order = append(order, 1) })
	k.At(30, func() { order = append(order, 3) })
	end := k.Run()
	if end != 30 {
		t.Errorf("end time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestKernelTieBreakBySchedule(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(5, func() { order = append(order, 1) })
	k.At(5, func() { order = append(order, 2) })
	k.At(5, func() { order = append(order, 3) })
	k.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("same-time events must run in schedule order: %v", order)
		}
	}
}

func TestKernelPastEventClamped(t *testing.T) {
	k := NewKernel()
	var when Time
	k.At(100, func() {
		k.At(50, func() { when = k.Now() }) // in the past: clamp to now
	})
	k.Run()
	if when != 100 {
		t.Errorf("past event ran at %v, want clamped to 100", when)
	}
}

func TestProcessWaitAdvancesTime(t *testing.T) {
	k := NewKernel()
	var t1, t2 Time
	k.Spawn("p", func(p *Process) {
		t1 = p.Now()
		p.Wait(5 * Microsecond)
		t2 = p.Now()
		p.Wait(0)  // no-op
		p.Wait(-3) // no-op
		if p.Now() != t2 {
			t.Errorf("non-positive Wait must not advance time")
		}
	})
	k.Run()
	if t1 != 0 || t2 != 5*Microsecond {
		t.Errorf("t1=%v t2=%v", t1, t2)
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Wait(10)
				log = append(log, "a")
			}
		})
		k.Spawn("b", func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Wait(15)
				log = append(log, "b")
			}
		})
		k.Run()
		return log
	}
	first := run()
	want := []string{"a", "b", "a", "a", "b", "b"} // 10,15,20,30,30(a before? a at30 scheduled earlier) ...
	_ = want
	for trial := 0; trial < 20; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, first, again)
			}
		}
	}
}

func TestChanSendRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan(k)
	var got []int
	k.Spawn("recv", func(p *Process) {
		for i := 0; i < 3; i++ {
			got = append(got, ch.Recv(p).(int))
		}
	})
	k.Spawn("send", func(p *Process) {
		for i := 1; i <= 3; i++ {
			p.Wait(10)
			ch.Send(i)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("got %v", got)
	}
}

func TestChanRecvBlocksUntilSend(t *testing.T) {
	k := NewKernel()
	ch := NewChan(k)
	var recvAt Time
	k.Spawn("recv", func(p *Process) {
		ch.Recv(p)
		recvAt = p.Now()
	})
	k.At(42, func() { ch.Send("x") })
	k.Run()
	if recvAt != 42 {
		t.Errorf("receive completed at %v, want 42", recvAt)
	}
}

func TestChanTryRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan(k)
	if _, ok := ch.TryRecv(); ok {
		t.Errorf("TryRecv on empty chan must fail")
	}
	ch.Send(7)
	if v, ok := ch.TryRecv(); !ok || v.(int) != 7 {
		t.Errorf("TryRecv = %v %v", v, ok)
	}
	if ch.Len() != 0 {
		t.Errorf("Len = %d after drain", ch.Len())
	}
}

func TestChanMultipleWaiters(t *testing.T) {
	k := NewKernel()
	ch := NewChan(k)
	var got []string
	mk := func(name string) {
		k.Spawn(name, func(p *Process) {
			v := ch.Recv(p)
			got = append(got, name+":"+v.(string))
		})
	}
	mk("r1")
	mk("r2")
	k.At(5, func() { ch.Send("a") })
	k.At(6, func() { ch.Send("b") })
	k.Run()
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	// Spurious wakeups are allowed but every item must be delivered
	// exactly once.
	seen := map[string]bool{}
	for _, g := range got {
		seen[g[3:]] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Errorf("items lost: %v", got)
	}
}

func TestBlockedProcessUnwoundAtEnd(t *testing.T) {
	k := NewKernel()
	ch := NewChan(k)
	cleaned := false
	k.Spawn("stuck", func(p *Process) {
		defer func() { cleaned = true }()
		ch.Recv(p) // never satisfied
		t.Errorf("stuck process must not continue past Recv")
	})
	end := k.Run()
	if end != 0 {
		t.Errorf("end = %v, want 0", end)
	}
	if !cleaned {
		t.Errorf("blocked process deferred cleanup must run at shutdown")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", func(p *Process) {
		p.Wait(10)
		p.Kernel().Spawn("child", func(c *Process) {
			c.Wait(5)
			childRan = true
		})
		p.Wait(20)
	})
	end := k.Run()
	if !childRan {
		t.Errorf("child process did not run")
	}
	if end != 30 {
		t.Errorf("end = %v, want 30", end)
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Errorf("String = %q", got)
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Errorf("Seconds = %f", s)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("node panic must propagate out of Run")
		}
	}()
	k := NewKernel()
	k.Spawn("bad", func(p *Process) {
		panic("real bug in node code")
	})
	k.Run()
}

// TestRunLeavesNoGoroutines checks that Run stops every process's
// coroutine, including the ones still parked when the event queue drains
// and one spawned while they unwind: a coroutine that is never stopped
// keeps its goroutine forever.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ch := NewChan(k)
	for i := 0; i < 8; i++ {
		k.Spawn("stuck", func(p *Process) {
			p.Wait(Time(i))
			ch.Recv(p) // never satisfied
		})
	}
	k.Spawn("spawns while unwinding", func(p *Process) {
		defer k.Spawn("late", func(*Process) { t.Error("a process spawned after Run ended ran") })
		ch.Recv(p)
	})
	k.Spawn("finished", func(p *Process) { p.Wait(3) })
	k.Run()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
