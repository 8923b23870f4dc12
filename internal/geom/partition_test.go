package geom

import (
	"testing"
	"testing/quick"

	"locusroute/internal/mesh"
	"locusroute/internal/sim"
)

func TestNewPartitionValidation(t *testing.T) {
	g := Grid{Channels: 10, Grids: 341}
	if _, err := NewPartition(g, 0, 1); err == nil {
		t.Errorf("expected error for zero px")
	}
	if _, err := NewPartition(g, 4, 40); err == nil {
		t.Errorf("expected error for py > channels")
	}
	if _, err := NewPartition(Grid{}, 1, 1); err == nil {
		t.Errorf("expected error for invalid grid")
	}
	if _, err := NewPartition(g, 4, 4); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPartitionRegionsTile(t *testing.T) {
	g := Grid{Channels: 10, Grids: 341}
	p, err := NewPartition(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell belongs to exactly one region, and regions match Owner.
	seen := make(map[Point]int)
	total := 0
	for proc := 0; proc < p.Procs(); proc++ {
		r := p.Region(proc)
		if r.Empty() {
			t.Fatalf("region %d is empty", proc)
		}
		total += r.Area()
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				pt := Pt(x, y)
				if prev, dup := seen[pt]; dup {
					t.Fatalf("cell %v in regions %d and %d", pt, prev, proc)
				}
				seen[pt] = proc
				if own := p.Owner(pt); own != proc {
					t.Fatalf("Owner(%v) = %d, want %d", pt, own, proc)
				}
			}
		}
	}
	if total != g.Cells() {
		t.Fatalf("regions cover %d cells, want %d", total, g.Cells())
	}
}

func TestPartitionRegionSizesBalanced(t *testing.T) {
	g := Grid{Channels: 12, Grids: 386}
	p, err := NewPartition(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	minA, maxA := g.Cells(), 0
	for proc := 0; proc < p.Procs(); proc++ {
		a := p.Region(proc).Area()
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	// Rows and columns each differ by at most 1, so areas are close.
	if maxA-minA > (g.Grids/4+1)+(g.Channels/4+1)+1 {
		t.Errorf("region areas unbalanced: min=%d max=%d", minA, maxA)
	}
}

func TestPartitionCoordRoundTrip(t *testing.T) {
	g := Grid{Channels: 16, Grids: 64}
	p, _ := NewPartition(g, 4, 4)
	for proc := 0; proc < p.Procs(); proc++ {
		mx, my := p.Coord(proc)
		if got := p.Proc(mx, my); got != proc {
			t.Errorf("Proc(Coord(%d)) = %d", proc, got)
		}
	}
}

func TestPartitionMeshDistance(t *testing.T) {
	g := Grid{Channels: 16, Grids: 64}
	p, _ := NewPartition(g, 4, 4)
	if d := p.MeshDistance(0, 15); d != 6 {
		t.Errorf("distance corner-to-corner = %d, want 6", d)
	}
	if d := p.MeshDistance(5, 5); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	if p.MeshDistance(2, 7) != p.MeshDistance(7, 2) {
		t.Errorf("mesh distance must be symmetric")
	}
}

func TestMeshDistanceIsNotPacketHops(t *testing.T) {
	// The locality measure's distance is Manhattan; the simulated
	// network is a unidirectional torus. Processor 1 to processor 0 is
	// 1 apart on the mesh and 3 hops for a packet, which wraps.
	p, _ := NewPartition(Grid{Channels: 16, Grids: 64}, 4, 4)
	net, err := mesh.New(sim.NewKernel(), []int{p.PX, p.PY}, mesh.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d := p.MeshDistance(1, 0); d != 1 {
		t.Errorf("MeshDistance(1, 0) = %d, want 1 (Manhattan)", d)
	}
	if d := net.Distance(1, 0); d != 3 {
		t.Errorf("packet hops 1 -> 0 = %d, want 3 (torus wrap)", d)
	}
}

func TestPartitionNeighbors(t *testing.T) {
	g := Grid{Channels: 16, Grids: 64}
	p, _ := NewPartition(g, 4, 4)
	// Corner has 2 neighbors, edge 3, interior 4.
	if n := p.Neighbors(0); len(n) != 2 {
		t.Errorf("corner neighbors = %v", n)
	}
	if n := p.Neighbors(1); len(n) != 3 {
		t.Errorf("edge neighbors = %v", n)
	}
	if n := p.Neighbors(5); len(n) != 4 {
		t.Errorf("interior neighbors = %v", n)
	}
	for _, nb := range p.Neighbors(5) {
		if p.MeshDistance(5, nb) != 1 {
			t.Errorf("neighbor %d not at distance 1", nb)
		}
	}
}

func TestRegionsTouching(t *testing.T) {
	g := Grid{Channels: 16, Grids: 64}
	p, _ := NewPartition(g, 4, 4)
	// A rect inside one region.
	r0 := p.Region(0)
	got := p.RegionsTouching(Rect{X0: r0.X0, Y0: r0.Y0, X1: r0.X0 + 1, Y1: r0.Y0 + 1})
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("RegionsTouching single = %v", got)
	}
	// The whole grid touches everything.
	got = p.RegionsTouching(g.Bounds())
	if len(got) != 16 {
		t.Errorf("RegionsTouching all = %v", got)
	}
	for i, proc := range got {
		if proc != i {
			t.Errorf("RegionsTouching must be ascending, got %v", got)
		}
	}
	// Out-of-bounds rect yields nil.
	if got := p.RegionsTouching(R(1000, 1000, 1001, 1001)); got != nil {
		t.Errorf("off-grid rect should touch nothing, got %v", got)
	}
}

func TestRegionsTouchingMatchesOwnerScan(t *testing.T) {
	g := Grid{Channels: 10, Grids: 37} // awkward sizes on purpose
	p, _ := NewPartition(g, 3, 3)
	f := func(x0, y0, w, h uint8) bool {
		r := R(int(x0)%40, int(y0)%12, int(x0)%40+int(w)%10, int(y0)%12+int(h)%5)
		want := map[int]bool{}
		cl := r.Intersect(g.Bounds())
		for y := cl.Y0; y < cl.Y1; y++ {
			for x := cl.X0; x < cl.X1; x++ {
				want[p.Owner(Pt(x, y))] = true
			}
		}
		got := p.RegionsTouching(r)
		if len(got) != len(want) {
			return false
		}
		for _, proc := range got {
			if !want[proc] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLocateCutInverse(t *testing.T) {
	for _, total := range []int{7, 10, 341, 386} {
		for _, n := range []int{1, 2, 3, 4, 5} {
			if n > total {
				continue
			}
			for x := 0; x < total; x++ {
				i := locate(total, n, x)
				if x < cut(total, n, i) || x >= cut(total, n, i+1) {
					t.Fatalf("locate(%d,%d,%d)=%d but slice is [%d,%d)",
						total, n, x, i, cut(total, n, i), cut(total, n, i+1))
				}
			}
		}
	}
}

// TestOwnerTableMatchesPartition holds the owner lookup of the commit and
// delta paths to Partition.Owner on every cell of splits whose regions are uneven: the
// bnrE and MDC grids at the paper's 4x4 and at 3x3, and a 7x13 grid cut
// into 2x5 regions.
func TestOwnerTableMatchesPartition(t *testing.T) {
	for _, tc := range []struct {
		channels, grids, px, py int
	}{
		{10, 341, 4, 4},
		{12, 386, 3, 3},
		{7, 13, 2, 5},
	} {
		part, err := NewPartition(Grid{Channels: tc.channels, Grids: tc.grids}, tc.px, tc.py)
		if err != nil {
			t.Fatal(err)
		}
		owners := part.OwnerTable()
		for y := 0; y < tc.channels; y++ {
			for x := 0; x < tc.grids; x++ {
				if got, want := owners.Owner(x, y), part.Owner(Pt(x, y)); got != want {
					t.Fatalf("%dx%d at %dx%d: cell (%d, %d) owner %d, Partition.Owner %d",
						tc.channels, tc.grids, tc.px, tc.py, x, y, got, want)
				}
			}
		}
	}
}
