package mesh

import (
	"testing"

	"locusroute/internal/sim"
)

func newNet(t *testing.T, k *sim.Kernel, dims ...int) *Network {
	t.Helper()
	n, err := New(k, dims, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := New(k, []int{0, 4}, DefaultParams()); err == nil {
		t.Errorf("zero px must fail")
	}
	if _, err := New(k, []int{4, -1}, DefaultParams()); err == nil {
		t.Errorf("negative py must fail")
	}
}

func TestDistanceUnidirectionalTorus(t *testing.T) {
	k := sim.NewKernel()
	n := newNet(t, k, 4, 4)
	// Node ids are row-major: id = y*4 + x.
	if d := n.Distance(0, 3); d != 3 {
		t.Errorf("(0,0)->(3,0) = %d, want 3", d)
	}
	// Unidirectional: going "back" wraps around.
	if d := n.Distance(3, 0); d != 1 {
		t.Errorf("(3,0)->(0,0) = %d, want 1 (wrap)", d)
	}
	if d := n.Distance(0, 15); d != 6 {
		t.Errorf("corner to corner = %d, want 6", d)
	}
	if d := n.Distance(5, 5); d != 0 {
		t.Errorf("self distance = %d", d)
	}
}

func TestLatencyFormulaNoContention(t *testing.T) {
	// The paper: 2*ProcessTime + HopTime*(D+L) with the receive-side
	// ProcessTime charged at dequeue.
	params := DefaultParams()
	k := sim.NewKernel()
	n := newNet(t, k, 4, 4)
	const L = 50
	var recvDone sim.Time
	k.Spawn("recv", func(p *sim.Process) {
		pkt := n.Inbox(3).Recv(p).(*Packet)
		n.ChargeReceive(p)
		recvDone = p.Now()
		if pkt.Size != L || pkt.From != 0 || pkt.To != 3 {
			t.Errorf("packet fields wrong: %+v", pkt)
		}
	})
	k.Spawn("send", func(p *sim.Process) {
		n.Send(p, 0, 3, "hello", L)
	})
	k.Run()
	D := sim.Time(3)
	want := 2*params.ProcessTime + params.HopTime*(D+L)
	if recvDone != want {
		t.Errorf("end-to-end = %v, want %v", recvDone, want)
	}
}

func TestSelfSendStillCosts(t *testing.T) {
	params := DefaultParams()
	k := sim.NewKernel()
	n := newNet(t, k, 2, 2)
	var done sim.Time
	k.Spawn("node0", func(p *sim.Process) {
		n.Send(p, 0, 0, "x", 10)
		pkt := n.Inbox(0).Recv(p).(*Packet)
		n.ChargeReceive(p)
		done = p.Now()
		_ = pkt
	})
	k.Run()
	want := 2*params.ProcessTime + params.HopTime*10
	if done != want {
		t.Errorf("self-send time = %v, want %v", done, want)
	}
}

func TestContentionDelaysSecondPacket(t *testing.T) {
	k := sim.NewKernel()
	n := newNet(t, k, 4, 1)
	var arrivals []sim.Time
	k.Spawn("recv", func(p *sim.Process) {
		for i := 0; i < 2; i++ {
			pkt := n.Inbox(2).Recv(p).(*Packet)
			arrivals = append(arrivals, pkt.ArriveAt)
		}
	})
	// Two senders push large packets over the shared 1->2 link region.
	k.Spawn("s0", func(p *sim.Process) {
		n.Send(p, 0, 2, "a", 100)
	})
	k.Spawn("s1", func(p *sim.Process) {
		n.Send(p, 1, 2, "b", 100)
	})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if n.Stats().ContentionDelay <= 0 {
		t.Errorf("expected contention delay > 0, got %v", n.Stats().ContentionDelay)
	}
}

func TestNoContentionOnDisjointLinks(t *testing.T) {
	k := sim.NewKernel()
	n := newNet(t, k, 2, 2)
	k.Spawn("s0", func(p *sim.Process) { n.Send(p, 0, 1, "a", 50) })
	k.Spawn("s1", func(p *sim.Process) { n.Send(p, 2, 3, "b", 50) })
	k.Run()
	if n.Stats().ContentionDelay != 0 {
		t.Errorf("disjoint routes must not contend, delay=%v", n.Stats().ContentionDelay)
	}
}

func TestStatsAccumulate(t *testing.T) {
	k := sim.NewKernel()
	n := newNet(t, k, 4, 4)
	k.Spawn("s", func(p *sim.Process) {
		n.Send(p, 0, 1, "a", 30) // 1 hop
		n.Send(p, 0, 2, "b", 70) // 2 hops
	})
	k.Run()
	st := n.Stats()
	if st.Packets != 2 {
		t.Errorf("Packets = %d", st.Packets)
	}
	if st.Bytes != 100 {
		t.Errorf("Bytes = %d", st.Bytes)
	}
	if st.HopBytes != 30+140 {
		t.Errorf("HopBytes = %d, want 170", st.HopBytes)
	}
	if st.MBytes() != 100e-6 {
		t.Errorf("MBytes = %f", st.MBytes())
	}
	if st.TotalLatency <= 0 {
		t.Errorf("TotalLatency must be positive")
	}
}

func TestZeroSizeClampedToOneByte(t *testing.T) {
	k := sim.NewKernel()
	n := newNet(t, k, 2, 1)
	k.Spawn("s", func(p *sim.Process) { n.Send(p, 0, 1, nil, 0) })
	k.Run()
	if n.Stats().Bytes != 1 {
		t.Errorf("zero-size packets must occupy at least one byte, got %d", n.Stats().Bytes)
	}
}

func TestDeliveryOrderOnSameRouteFIFO(t *testing.T) {
	// Deterministic wormhole routing on the same path must deliver in
	// send order.
	k := sim.NewKernel()
	n := newNet(t, k, 4, 1)
	var got []string
	k.Spawn("recv", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			pkt := n.Inbox(3).Recv(p).(*Packet)
			got = append(got, pkt.Payload.(string))
		}
	})
	k.Spawn("send", func(p *sim.Process) {
		for _, s := range []string{"1", "2", "3"} {
			n.Send(p, 0, 3, s, 20)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != "1" || got[1] != "2" || got[2] != "3" {
		t.Errorf("delivery order = %v", got)
	}
}

func TestLatencyMonotonicInDistance(t *testing.T) {
	// On an idle network, delivery latency strictly increases with hop
	// count for a fixed packet size.
	var last sim.Time = -1
	for _, dst := range []int{1, 2, 3, 7, 11, 15} {
		k := sim.NewKernel()
		n := newNet(t, k, 4, 4)
		var arrive sim.Time
		dst := dst
		k.Spawn("s", func(p *sim.Process) {
			n.Send(p, 0, dst, nil, 32)
		})
		k.Spawn("r", func(p *sim.Process) {
			pkt := n.Inbox(dst).Recv(p).(*Packet)
			arrive = pkt.ArriveAt
		})
		k.Run()
		if arrive <= last {
			t.Fatalf("dst %d: latency %v not greater than previous %v", dst, arrive, last)
		}
		last = arrive
	}
}

func TestLatencyScalesWithSize(t *testing.T) {
	measure := func(size int) sim.Time {
		k := sim.NewKernel()
		n := newNet(t, k, 4, 4)
		var arrive sim.Time
		k.Spawn("s", func(p *sim.Process) { n.Send(p, 0, 5, nil, size) })
		k.Spawn("r", func(p *sim.Process) {
			arrive = n.Inbox(5).Recv(p).(*Packet).ArriveAt
		})
		k.Run()
		return arrive
	}
	small, big := measure(10), measure(1000)
	// Wormhole: latency grows by HopTime per extra byte.
	want := small + 990*DefaultParams().HopTime
	if big != want {
		t.Errorf("1000B latency = %v, want %v", big, want)
	}
}

func TestAllPairsDeliver(t *testing.T) {
	// Every (src, dst) pair on a 3x3 mesh delivers exactly once.
	k := sim.NewKernel()
	n := newNet(t, k, 3, 3)
	got := make(map[[2]int]bool)
	for dst := 0; dst < 9; dst++ {
		k.Spawn("recv", func(p *sim.Process) {
			for i := 0; i < 9; i++ {
				pkt := n.Inbox(dst).Recv(p).(*Packet)
				key := [2]int{pkt.From, pkt.To}
				if got[key] {
					t.Errorf("duplicate delivery %v", key)
				}
				got[key] = true
			}
		})
	}
	for src := 0; src < 9; src++ {
		k.Spawn("send", func(p *sim.Process) {
			for dst := 0; dst < 9; dst++ {
				n.Send(p, src, dst, nil, 8)
			}
		})
	}
	k.Run()
	if len(got) != 81 {
		t.Errorf("delivered %d of 81 pairs", len(got))
	}
}

func TestHopBytesMatchesDistance(t *testing.T) {
	k := sim.NewKernel()
	n := newNet(t, k, 4, 4)
	k.Spawn("s", func(p *sim.Process) {
		n.Send(p, 0, 15, nil, 10) // distance 6
	})
	k.Run()
	if n.Stats().HopBytes != 60 {
		t.Errorf("HopBytes = %d, want 60", n.Stats().HopBytes)
	}
	if d := n.Distance(0, 15); d != 6 {
		t.Errorf("Distance = %d", d)
	}
}

func TestSelfSendExcludedFromLinkStats(t *testing.T) {
	// from==to deliveries cross no links: they are tallied separately so
	// Packets/Bytes/HopBytes count only real interconnect traffic.
	k := sim.NewKernel()
	n := newNet(t, k, 2, 2)
	k.Spawn("node0", func(p *sim.Process) {
		n.Send(p, 0, 0, "self", 10)
		n.Send(p, 0, 1, "link", 20)
	})
	k.Spawn("recv", func(p *sim.Process) { n.Inbox(1).Recv(p) })
	k.Run()
	st := n.Stats()
	if st.SelfPackets != 1 || st.SelfBytes != 10 {
		t.Errorf("self traffic = %d pkts / %d bytes, want 1 / 10", st.SelfPackets, st.SelfBytes)
	}
	if st.Packets != 1 || st.Bytes != 20 {
		t.Errorf("link traffic = %d pkts / %d bytes, want 1 / 20", st.Packets, st.Bytes)
	}
	if st.HopBytes != 20 {
		t.Errorf("HopBytes = %d, want 20 (self-sends cross no links)", st.HopBytes)
	}
}

func TestRecorderObservesTraffic(t *testing.T) {
	// Every network records its histograms: one latency per
	// link-crossing packet, one link delay per hop, one queue depth per
	// dequeue.
	k := sim.NewKernel()
	n := newNet(t, k, 2, 2)
	k.Spawn("r", func(p *sim.Process) { n.Inbox(3).Recv(p) })
	k.Spawn("s", func(p *sim.Process) { n.Send(p, 0, 3, "a", 30) })
	k.Run()
	st := n.Stats()
	if st.Latency.Count() != 1 || st.Latency.Sum() != int64(st.TotalLatency) {
		t.Errorf("latency observations = %d summing to %d, want 1 summing to %d",
			st.Latency.Count(), st.Latency.Sum(), int64(st.TotalLatency))
	}
	if st.LinkDelay.Count() != 2 || st.LinkDelay.Max() != 0 {
		t.Errorf("link delays = %d (max %d), want 2 uncontended hops", st.LinkDelay.Count(), st.LinkDelay.Max())
	}
	if st.QueueDepth.Count() != 1 {
		t.Errorf("queue depth observations = %d, want 1", st.QueueDepth.Count())
	}
	if st.QueueDepth.Max() != 1 {
		t.Errorf("queue depth at dequeue = %d, want 1 (the packet being taken)", st.QueueDepth.Max())
	}
}

func TestHypercubeShorterDiameter(t *testing.T) {
	// The binary 4-cube has diameter 4; the unidirectional 4x4 torus
	// mesh has diameter 6. Corner-to-corner routes are shorter on the
	// hypercube.
	diameter := func(dims ...int) int {
		n := newNet(t, sim.NewKernel(), dims...)
		longest := 0
		for a := range n.inbox {
			for b := range n.inbox {
				longest = max(longest, n.Distance(a, b))
			}
		}
		return longest
	}
	if d := diameter(2, 2, 2, 2); d != 4 {
		t.Errorf("hypercube diameter = %d, want 4", d)
	}
	if d := diameter(4, 4); d != 6 {
		t.Errorf("mesh diameter = %d, want 6", d)
	}
}
