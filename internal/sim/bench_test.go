package sim

import "testing"

// BenchmarkKernelEvents measures raw event throughput through the
// kernel's queue: a set of processes advancing simulated time in short
// steps, which is the dominant operation of a DES routing run (every
// compute charge, packet copy, and wire phase is one Wait). The
// per-iteration unit is one processed event.
func BenchmarkKernelEvents(b *testing.B) {
	const procs = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := NewKernel()
		steps := 1000
		for pn := 0; pn < procs; pn++ {
			pn := pn
			k.Spawn("p", func(p *Process) {
				for s := 0; s < steps; s++ {
					p.Wait(Time(1 + (s+pn)%7))
				}
			})
		}
		b.StartTimer()
		k.Run()
	}
	b.ReportMetric(float64(16*1000), "events/op")
}

// BenchmarkChanSendRecv measures the channel hot path: one producer
// feeding one consumer through a simulated channel, the shape of every
// mesh inbox in the message passing runtime.
func BenchmarkChanSendRecv(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := NewKernel()
		ch := NewChan(k)
		const items = 2000
		k.Spawn("recv", func(p *Process) {
			for j := 0; j < items; j++ {
				ch.Recv(p)
			}
		})
		k.Spawn("send", func(p *Process) {
			for j := 0; j < items; j++ {
				p.Wait(3)
				ch.Send(j)
			}
		})
		b.StartTimer()
		k.Run()
	}
	b.ReportMetric(2000, "items/op")
}

// BenchmarkChanManyReceivers measures a contended channel: many blocked
// receivers served by one producer. Before wake-one semantics, every
// Send woke every waiter (O(waiters) spurious re-parks per item); this
// benchmark is the regression guard for that storm.
func BenchmarkChanManyReceivers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := NewKernel()
		ch := NewChan(k)
		const receivers, items = 32, 1000
		for r := 0; r < receivers; r++ {
			k.Spawn("recv", func(p *Process) {
				for {
					if v := ch.Recv(p); v.(int) < 0 {
						return
					}
					p.Wait(5)
				}
			})
		}
		k.Spawn("send", func(p *Process) {
			for j := 0; j < items; j++ {
				p.Wait(1)
				ch.Send(j)
			}
			for r := 0; r < receivers; r++ {
				ch.Send(-1)
			}
		})
		b.StartTimer()
		k.Run()
	}
	b.ReportMetric(1000, "items/op")
}

// BenchmarkProcessHandoff measures one process switch — the kernel
// resuming a process and the process parking again — with two processes
// alternating Wait(1), so every event is a switch. One op is one switch.
func BenchmarkProcessHandoff(b *testing.B) {
	k := NewKernel()
	for range 2 {
		k.Spawn("p", func(p *Process) {
			for i := 0; i < b.N/2; i++ {
				p.Wait(1)
			}
		})
	}
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/switch")
}
