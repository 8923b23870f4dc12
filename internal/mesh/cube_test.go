package mesh

import (
	"testing"

	"locusroute/internal/sim"
)

// Networks of more than two dimensions: the binary n-cubes and the
// k-ary n-cube shapes that the paper's 2-D mesh generalises to.

func TestNewCubeValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := New(k, nil, DefaultParams()); err == nil {
		t.Errorf("empty dims must fail")
	}
	if _, err := New(k, []int{2, 2, 0}, DefaultParams()); err == nil {
		t.Errorf("zero dim must fail")
	}
	if n := newNet(t, k, 2, 2, 2, 2); len(n.inbox) != 16 || len(n.linkFree) != 64 {
		t.Errorf("[2 2 2 2]: %d nodes, %d links, want 16 and 64", len(n.inbox), len(n.linkFree))
	}
}

func TestCubeMatchesMesh2D(t *testing.T) {
	// The [4 4] shape is the paper's 2-D mesh: row-major ids
	// (id = y*4 + x), forward wrap distance in X plus in Y, and an
	// uncontended head that pays one HopTime per hop before the tail.
	k := sim.NewKernel()
	n := newNet(t, k, 4, 4)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			want := (b%4-a%4+4)%4 + (b/4-a/4+4)%4
			if d := n.Distance(a, b); d != want {
				t.Fatalf("distance(%d,%d) = %d, want %d", a, b, d, want)
			}
		}
	}
	params := DefaultParams()
	const L = 40
	var arrive sim.Time
	k.Spawn("s", func(p *sim.Process) { n.Send(p, 0, 13, nil, L) })
	k.Spawn("r", func(p *sim.Process) {
		arrive = n.Inbox(13).Recv(p).(*Packet).ArriveAt
	})
	k.Run()
	// 0 = (0,0) to 13 = (1,3): one hop in X, three in Y.
	if want := params.ProcessTime + params.HopTime*(4+L); arrive != want {
		t.Errorf("arrival = %v, want %v", arrive, want)
	}
}

func TestCubeLatencyFormula(t *testing.T) {
	// The paper's 2*ProcessTime + HopTime*(D+L) holds on a binary 3-cube.
	params := DefaultParams()
	k := sim.NewKernel()
	n := newNet(t, k, 2, 2, 2)
	const L = 30
	var done sim.Time
	k.Spawn("r", func(p *sim.Process) {
		n.Inbox(7).Recv(p)
		n.ChargeReceive(p)
		done = p.Now()
	})
	k.Spawn("s", func(p *sim.Process) { n.Send(p, 0, 7, nil, L) })
	k.Run()
	D := sim.Time(n.Distance(0, 7))
	if D != 3 {
		t.Fatalf("distance = %d, want 3", D)
	}
	want := 2*params.ProcessTime + params.HopTime*(D+L)
	if done != want {
		t.Errorf("end-to-end = %v, want %v", done, want)
	}
}

func TestCubeAllPairsDeliver(t *testing.T) {
	// Every (src, dst) pair on a binary 3-cube delivers exactly once.
	k := sim.NewKernel()
	n := newNet(t, k, 2, 2, 2)
	got := make(map[[2]int]bool)
	for dst := 0; dst < 8; dst++ {
		k.Spawn("r", func(p *sim.Process) {
			for i := 0; i < 8; i++ {
				pkt := n.Inbox(dst).Recv(p).(*Packet)
				key := [2]int{pkt.From, pkt.To}
				if got[key] {
					t.Errorf("duplicate delivery %v", key)
				}
				got[key] = true
			}
		})
	}
	for src := 0; src < 8; src++ {
		k.Spawn("s", func(p *sim.Process) {
			for dst := 0; dst < 8; dst++ {
				n.Send(p, src, dst, nil, 4)
			}
		})
	}
	k.Run()
	if len(got) != 64 {
		t.Errorf("delivered %d of 64 pairs", len(got))
	}
}

func TestCubeContention(t *testing.T) {
	// On a binary 3-cube, 0->3 and 1->3 both end on the dimension-1
	// link out of node 1: the second large packet must wait for it.
	k := sim.NewKernel()
	n := newNet(t, k, 2, 2, 2)
	arrivals := 0
	k.Spawn("r", func(p *sim.Process) {
		for i := 0; i < 2; i++ {
			n.Inbox(3).Recv(p)
			arrivals++
		}
	})
	k.Spawn("s0", func(p *sim.Process) { n.Send(p, 0, 3, "a", 100) })
	k.Spawn("s1", func(p *sim.Process) { n.Send(p, 1, 3, "b", 100) })
	k.Run()
	if arrivals != 2 {
		t.Fatalf("arrivals = %d, want 2", arrivals)
	}
	if n.Stats().ContentionDelay <= 0 {
		t.Errorf("expected contention delay > 0, got %v", n.Stats().ContentionDelay)
	}
}

func TestCubeSelfSendExcludedFromLinkStats(t *testing.T) {
	k := sim.NewKernel()
	n := newNet(t, k, 2, 2, 2)
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
