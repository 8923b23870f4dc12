package costarray

import (
	"math/rand"
	"testing"

	"locusroute/internal/geom"
)

func newTestDelta(t *testing.T) *Delta {
	t.Helper()
	part, err := geom.NewPartition(geom.Grid{Channels: 8, Grids: 32}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewDelta(part)
}

func TestDeltaAddAndTake(t *testing.T) {
	d := newTestDelta(t)
	r0 := d.part.Region(0)
	d.Add(r0.X0, r0.Y0, 2)
	d.Add(r0.X0+1, r0.Y0+1, -1)
	if !d.HasChanges(0) {
		t.Fatalf("region 0 must have changes")
	}
	if d.HasChanges(3) {
		t.Fatalf("region 3 must not have changes")
	}
	bb, vals, scanned := d.TakeRegion(0)
	if bb.Empty() || len(vals) != bb.Area() {
		t.Fatalf("TakeRegion bb=%v vals=%d", bb, len(vals))
	}
	if scanned == 0 {
		t.Errorf("scan work must be reported")
	}
	// Taking clears: second take is empty and cheap.
	bb2, vals2, _ := d.TakeRegion(0)
	if !bb2.Empty() || vals2 != nil {
		t.Errorf("second TakeRegion must be empty, got %v", bb2)
	}
	if d.HasChanges(0) {
		t.Errorf("dirty bound must be cleared after take")
	}
}

func TestDeltaCancellation(t *testing.T) {
	d := newTestDelta(t)
	r0 := d.part.Region(0)
	// Route then rip up the same cells: +1 then -1 cancels.
	for x := r0.X0; x < r0.X1; x++ {
		d.Add(x, r0.Y0, 1)
	}
	for x := r0.X0; x < r0.X1; x++ {
		d.Add(x, r0.Y0, -1)
	}
	if !d.HasChanges(0) {
		t.Fatalf("dirty bound is conservative, should still be set")
	}
	bb, vals, scanned := d.TakeRegion(0)
	if !bb.Empty() || vals != nil {
		t.Errorf("fully cancelled deltas must produce no update, got %v", bb)
	}
	if scanned == 0 {
		t.Errorf("the cancellation discovery scan must be accounted")
	}
}

func TestDeltaPeekDoesNotClear(t *testing.T) {
	d := newTestDelta(t)
	r1 := d.part.Region(1)
	d.Add(r1.X0, r1.Y0, 3)
	bb1, vals1, _ := d.PeekRegion(1)
	bb2, vals2, _ := d.PeekRegion(1)
	if bb1 != bb2 || len(vals1) != len(vals2) {
		t.Errorf("Peek must be idempotent")
	}
	if !d.HasChanges(1) {
		t.Errorf("Peek must not clear the dirty bound")
	}
	bb3, _, _ := d.TakeRegion(1)
	if bb3 != bb1 {
		t.Errorf("Take after Peek sees same bounds: %v vs %v", bb3, bb1)
	}
}

func TestDeltaRegionsIndependent(t *testing.T) {
	d := newTestDelta(t)
	part := d.part
	for proc := 0; proc < part.Procs(); proc++ {
		r := part.Region(proc)
		d.Add(r.X0, r.Y0, int32(proc+1))
	}
	// Take one region; others must remain.
	d.TakeRegion(2)
	for proc := 0; proc < part.Procs(); proc++ {
		want := proc != 2
		if d.HasChanges(proc) != want {
			t.Errorf("region %d HasChanges = %v, want %v", proc, d.HasChanges(proc), want)
		}
	}
}

func TestDeltaReset(t *testing.T) {
	d := newTestDelta(t)
	d.Add(0, 0, 5)
	d.Reset()
	if d.HasChanges(0) || d.arr.At(0, 0) != 0 {
		t.Errorf("Reset must clear deltas and dirty bounds")
	}
}

// Property-style: applying every taken region's deltas to a mirror array
// reconstructs the full accumulated change exactly, regardless of where
// changes landed.
func TestDeltaTakeReconstructs(t *testing.T) {
	part, _ := geom.NewPartition(geom.Grid{Channels: 8, Grids: 32}, 4, 2)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := NewDelta(part)
		truth := New(part.Grid)
		for i := 0; i < 100; i++ {
			x, y := rng.Intn(32), rng.Intn(8)
			v := int32(rng.Intn(5) - 2)
			d.Add(x, y, v)
			truth.Add(x, y, v)
		}
		mirror := New(part.Grid)
		for proc := 0; proc < part.Procs(); proc++ {
			bb, vals, _ := d.TakeRegion(proc)
			if bb.Empty() {
				continue
			}
			if err := mirror.ApplyDelta(bb, vals); err != nil {
				t.Fatal(err)
			}
		}
		if !mirror.Equal(truth) {
			t.Fatalf("trial %d: reconstructed deltas differ from truth", trial)
		}
		// After taking everything, delta array must be all zero.
		if d.arr.NonZeroCells() != 0 {
			t.Fatalf("trial %d: deltas remain after taking all regions", trial)
		}
	}
}
