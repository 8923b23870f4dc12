package mesh

import (
	"testing"

	"locusroute/internal/sim"
)

func TestNewCubeValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewCube(k, nil, DefaultParams()); err == nil {
		t.Errorf("empty dims must fail")
	}
	if _, err := NewCube(k, []int{4, 0}, DefaultParams()); err == nil {
		t.Errorf("zero dim must fail")
	}
	c, err := NewCube(k, []int{2, 2, 2, 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.inbox) != 16 {
		t.Errorf("%d nodes, want 16", len(c.inbox))
	}
}

func TestCubeMatchesMesh2D(t *testing.T) {
	// A [4,4] cube must agree with the dedicated 2-D Network on
	// distances and uncontended latency.
	k1 := sim.NewKernel()
	net := newNet(t, k1, 4, 4)
	k2 := sim.NewKernel()
	cube, err := NewCube(k2, []int{4, 4}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if net.Distance(a, b) != cube.Distance(a, b) {
				t.Fatalf("distance(%d,%d): mesh %d, cube %d",
					a, b, net.Distance(a, b), cube.Distance(a, b))
			}
		}
	}
	var meshArrive, cubeArrive sim.Time
	k1.Spawn("s", func(p *sim.Process) { net.Send(p, 0, 13, nil, 40) })
	k1.Spawn("r", func(p *sim.Process) {
		meshArrive = net.Inbox(13).Recv(p).(*Packet).ArriveAt
	})
	k1.Run()
	k2.Spawn("s", func(p *sim.Process) { cube.Send(p, 0, 13, nil, 40) })
	k2.Spawn("r", func(p *sim.Process) {
		cubeArrive = cube.Inbox(13).Recv(p).(*Packet).ArriveAt
	})
	k2.Run()
	if meshArrive != cubeArrive {
		t.Errorf("latency mismatch: mesh %v, cube %v", meshArrive, cubeArrive)
	}
}

func TestHypercubeShorterDiameter(t *testing.T) {
	// The binary 4-cube has diameter 4; the unidirectional 4x4 torus
	// mesh has diameter 6. Corner-to-corner routes are shorter on the
	// hypercube.
	k := sim.NewKernel()
	cube, err := NewCube(k, []int{2, 2, 2, 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	maxHops := 0
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if d := cube.Distance(a, b); d > maxHops {
				maxHops = d
			}
		}
	}
	if maxHops != 4 {
		t.Errorf("hypercube diameter = %d, want 4", maxHops)
	}
	k2 := sim.NewKernel()
	mesh2d := newNet(t, k2, 4, 4)
	meshMax := 0
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if d := mesh2d.Distance(a, b); d > meshMax {
				meshMax = d
			}
		}
	}
	if meshMax != 6 {
		t.Errorf("mesh diameter = %d, want 6", meshMax)
	}
}

func TestCubeLatencyFormula(t *testing.T) {
	params := DefaultParams()
	k := sim.NewKernel()
	cube, err := NewCube(k, []int{2, 2, 2}, params)
	if err != nil {
		t.Fatal(err)
	}
	const L = 30
	var done sim.Time
	k.Spawn("r", func(p *sim.Process) {
		cube.Inbox(7).Recv(p)
		cube.ChargeReceive(p)
		done = p.Now()
	})
	k.Spawn("s", func(p *sim.Process) { cube.Send(p, 0, 7, nil, L) })
	k.Run()
	D := sim.Time(cube.Distance(0, 7)) // 3 hops
	want := 2*params.ProcessTime + params.HopTime*(D+L)
	if done != want {
		t.Errorf("end-to-end = %v, want %v", done, want)
	}
}

func TestCubeAllPairsDeliver(t *testing.T) {
	k := sim.NewKernel()
	cube, err := NewCube(k, []int{2, 2, 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for dst := 0; dst < 8; dst++ {
		dst := dst
		k.Spawn("r", func(p *sim.Process) {
			for i := 0; i < 8; i++ {
				cube.Inbox(dst).Recv(p)
				count++
			}
		})
	}
	for src := 0; src < 8; src++ {
		src := src
		k.Spawn("s", func(p *sim.Process) {
			for dst := 0; dst < 8; dst++ {
				cube.Send(p, src, dst, nil, 4)
			}
		})
	}
	k.Run()
	if count != 64 {
		t.Errorf("delivered %d of 64", count)
	}
}

func TestCubeContention(t *testing.T) {
	// Two packets forced over the same +dim0 link must contend.
	k := sim.NewKernel()
	cube, err := NewCube(k, []int{4}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("s0", func(p *sim.Process) {
		cube.Send(p, 0, 2, nil, 200)
		cube.Send(p, 0, 2, nil, 200)
	})
	k.Run()
	if cube.Stats().ContentionDelay <= 0 {
		t.Errorf("expected contention, got none")
	}
}

func TestCubeSelfSendExcludedFromLinkStats(t *testing.T) {
	k := sim.NewKernel()
	c, err := NewCube(k, []int{2, 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("node0", func(p *sim.Process) {
		c.Send(p, 0, 0, "self", 10)
		c.Send(p, 0, 1, "link", 20)
	})
	k.Spawn("recv", func(p *sim.Process) { c.Inbox(1).Recv(p) })
	k.Run()
	st := c.Stats()
	if st.SelfPackets != 1 || st.SelfBytes != 10 {
		t.Errorf("self traffic = %d pkts / %d bytes, want 1 / 10", st.SelfPackets, st.SelfBytes)
	}
	if st.Packets != 1 || st.Bytes != 20 {
		t.Errorf("link traffic = %d pkts / %d bytes, want 1 / 20", st.Packets, st.Bytes)
	}
}
