package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/part"
	"locusroute/internal/route"
)

func genCircuit(t *testing.T, name string, seed int64) *circuit.Circuit {
	t.Helper()
	p := circuit.BnrELike(seed)
	p.Name = name
	c, err := circuit.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return c
}

func smallCircuit(t testing.TB, name string, seed int64) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Generate(circuit.GenParams{
		Name: name, Channels: 4, Grids: 40, Wires: 12, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return c
}

// sumOfPaths rebuilds a cost array by committing every held path — the
// canonical-array invariant, applied from scratch.
func sumOfPaths(g geom.Grid, paths map[int]route.Path) *costarray.CostArray {
	arr := costarray.New(g)
	view := route.ArrayView{A: arr}
	for _, p := range paths {
		route.Commit(view, p)
	}
	return arr
}

func checkInvariant(t *testing.T, s *Store, name string) {
	t.Helper()
	e := s.lookup(name)
	if e == nil {
		t.Fatalf("circuit %q missing", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.paths) != len(e.circ.Wires) {
		t.Fatalf("%q: %d paths for %d wires", name, len(e.paths), len(e.circ.Wires))
	}
	if !sumOfPaths(e.circ.Grid, e.paths).Equal(e.arr) {
		t.Fatalf("%q: canonical array is not the sum of its committed paths", name)
	}
}

// TestBaselineMatchesSequential pins an upload's baseline to
// route.Sequential through the public surface: Info.Baseline is its
// Result, CloneArray its array, and a snapshot reload, which re-commits
// the stored paths without routing, rebuilds the same ArrayHash.
func TestBaselineMatchesSequential(t *testing.T) {
	c := genCircuit(t, "base", 11)
	params := route.DefaultParams()
	wantRes, wantArr := route.Sequential(c, params)

	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	info, err := s.Upload(c)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if info.Baseline != wantRes {
		t.Errorf("baseline mismatch:\n got %+v\nwant %+v", info.Baseline, wantRes)
	}
	if arr, _ := s.CloneArray(c.Name); !arr.Equal(wantArr) {
		t.Error("uploaded array differs from route.Sequential's")
	}
	if info.ArrayHash != wantArr.Hash() {
		t.Errorf("ArrayHash %s, want %s", info.ArrayHash, wantArr.Hash())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.SnapshotCircuits != 1 || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery = %+v, want the circuit from the snapshot alone", rec)
	}
	got, _ := s2.Get(c.Name)
	if got.ArrayHash != info.ArrayHash || got.Baseline != wantRes {
		t.Errorf("after reload: hash %s baseline %+v, want %s %+v",
			got.ArrayHash, got.Baseline, info.ArrayHash, wantRes)
	}
}

func TestUploadMutateEvictSemantics(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c := smallCircuit(t, "dyn", 3)
	info, err := s.Upload(c)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if info.Wires != len(c.Wires) || info.Epoch != 0 {
		t.Errorf("upload info = %+v, want %d wires at epoch 0", info, len(c.Wires))
	}
	if _, err := s.Upload(c); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate upload error = %v, want ErrExists", err)
	}
	if _, err := s.Mutate("ghost", []Op{{Kind: OpReroute, WireID: 0}}); !errors.Is(err, ErrUnknown) {
		t.Errorf("mutate of unknown circuit error = %v, want ErrUnknown", err)
	}
	checkInvariant(t, s, "dyn")

	newID := 500
	res, err := s.Mutate("dyn", []Op{
		{Kind: OpAdd, WireID: newID, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(30, 3)}},
		{Kind: OpReroute, WireID: c.Wires[0].ID},
		{Kind: OpRemove, WireID: c.Wires[1].ID},
	})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if res.Epoch != 3 {
		t.Errorf("epoch after 3 ops = %d, want 3", res.Epoch)
	}
	if res.Wires != len(c.Wires) {
		t.Errorf("wires after add+remove = %d, want %d", res.Wires, len(c.Wires))
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(res.Results))
	}
	if r := res.Results[0]; r.Kind != OpAdd || r.Routed.Len() == 0 || r.Ripped.Len() != 0 {
		t.Errorf("add result = %+v, want routed path and no ripped path", r)
	}
	if r := res.Results[1]; r.Kind != OpReroute || r.Routed.Len() == 0 || r.Ripped.Len() == 0 {
		t.Errorf("reroute result = %+v, want both paths", r)
	}
	if r := res.Results[2]; r.Kind != OpRemove || r.Routed.Len() != 0 || r.Ripped.Len() == 0 {
		t.Errorf("remove result = %+v, want ripped path only", r)
	}
	checkInvariant(t, s, "dyn")

	// Invalid batches are rejected atomically: the valid prefix must not
	// have been applied.
	before, _ := s.Get("dyn")
	bad := [][]Op{
		nil,
		{{Kind: OpAdd, WireID: 501, Pins: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}},
			{Kind: OpRemove, WireID: 999999}},
		{{Kind: OpAdd, WireID: newID, Pins: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}}},
		{{Kind: OpReroute, WireID: 999999}},
		{{Kind: OpAdd, WireID: 502, Pins: []geom.Point{geom.Pt(0, 0), geom.Pt(400, 1)}}},
		{{Kind: OpKind(9), WireID: 0}},
		{{Kind: OpAdd, WireID: -1, Pins: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}}},
	}
	for i, ops := range bad {
		if _, err := s.Mutate("dyn", ops); !errors.Is(err, ErrBadOp) {
			t.Errorf("bad batch %d error = %v, want ErrBadOp", i, err)
		}
	}
	after, _ := s.Get("dyn")
	if after != before {
		t.Errorf("rejected batches changed state:\nbefore %+v\nafter  %+v", before, after)
	}
	checkInvariant(t, s, "dyn")

	if _, ok := s.CloneArray("dyn"); !ok {
		t.Error("CloneArray failed for resident circuit")
	}
	if got := s.Names(); len(got) != 1 || got[0] != "dyn" {
		t.Errorf("Names() = %v, want [dyn]", got)
	}
	if err := s.Evict("dyn"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if _, ok := s.Get("dyn"); ok {
		t.Error("Get succeeded after eviction")
	}
	if err := s.Evict("dyn"); !errors.Is(err, ErrUnknown) {
		t.Errorf("second evict error = %v, want ErrUnknown", err)
	}
}

// TestRestartSnapshotIdentity pins the snapshot path: Close writes a
// snapshot, reopen rebuilds byte-identical arrays without routing.
func TestRestartSnapshotIdentity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a := smallCircuit(t, "a", 1)
	b := smallCircuit(t, "b", 2)
	for _, c := range []*circuit.Circuit{a, b} {
		if _, err := s.Upload(c); err != nil {
			t.Fatalf("Upload(%s): %v", c.Name, err)
		}
	}
	if _, err := s.Mutate("a", []Op{
		{Kind: OpReroute, WireID: a.Wires[0].ID},
		{Kind: OpRemove, WireID: a.Wires[1].ID},
	}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	wantA, _ := s.Get("a")
	wantB, _ := s.Get("b")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.SnapshotCircuits != 2 || rec.ReplayedRecords != 0 || rec.Truncated {
		t.Errorf("recovery = %+v, want 2 snapshot circuits, 0 replays, no truncation", rec)
	}
	gotA, _ := s2.Get("a")
	gotB, _ := s2.Get("b")
	if gotA != wantA {
		t.Errorf("circuit a after restart:\n got %+v\nwant %+v", gotA, wantA)
	}
	if gotB != wantB {
		t.Errorf("circuit b after restart:\n got %+v\nwant %+v", gotB, wantB)
	}
	checkInvariant(t, s2, "a")
	checkInvariant(t, s2, "b")

	// Recovered circuits stay mutable and log correctly.
	if _, err := s2.Mutate("b", []Op{{Kind: OpReroute, WireID: b.Wires[2].ID}}); err != nil {
		t.Fatalf("Mutate after restart: %v", err)
	}
	checkInvariant(t, s2, "b")
}

// TestRestartWALReplayIdentity pins the crash path: no snapshot is
// written (the WAL handle is dropped as a crash would), and replay alone
// reconstructs the exact state — including an eviction.
func TestRestartWALReplayIdentity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a := smallCircuit(t, "a", 5)
	b := smallCircuit(t, "b", 6)
	for _, c := range []*circuit.Circuit{a, b} {
		if _, err := s.Upload(c); err != nil {
			t.Fatalf("Upload(%s): %v", c.Name, err)
		}
	}
	if _, err := s.Mutate("a", []Op{
		{Kind: OpAdd, WireID: 900, Pins: []geom.Point{geom.Pt(1, 1), geom.Pt(20, 2)}},
		{Kind: OpReroute, WireID: a.Wires[3].ID},
	}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if err := s.Evict("b"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	want, _ := s.Get("a")
	s.wal.close() // crash: no snapshot

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.SnapshotCircuits != 0 || rec.ReplayedRecords != 4 || rec.Truncated {
		t.Errorf("recovery = %+v, want 0 snapshot circuits, 4 replays, no truncation", rec)
	}
	if got := s2.Names(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Names() after replay = %v, want [a]", got)
	}
	got, _ := s2.Get("a")
	if got != want {
		t.Errorf("circuit a after replay:\n got %+v\nwant %+v", got, want)
	}
	checkInvariant(t, s2, "a")
}

// TestTornWALTailTruncated pins crash-mid-append recovery: a torn final
// record is cut back cleanly and the state equals the intact prefix.
func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c := smallCircuit(t, "dyn", 7)
	if _, err := s.Upload(c); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if _, err := s.Mutate("dyn", []Op{{Kind: OpReroute, WireID: c.Wires[0].ID}}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	want, _ := s.Get("dyn")
	s.wal.close() // crash

	walPath := filepath.Join(dir, walFile)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// A torn record: a length prefix promising 64 bytes, then only 5.
	torn := binary.LittleEndian.AppendUint32(nil, 64)
	torn = append(torn, 1, 2, 3, 4, 5)
	if err := os.WriteFile(walPath, append(append([]byte(nil), intact...), torn...), 0o644); err != nil {
		t.Fatalf("write torn wal: %v", err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if rec := s2.Recovery(); !rec.Truncated || rec.ReplayedRecords != 2 {
		t.Errorf("recovery = %+v, want Truncated with 2 replays", rec)
	}
	got, _ := s2.Get("dyn")
	if got != want {
		t.Errorf("state after torn-tail recovery:\n got %+v\nwant %+v", got, want)
	}
	if data, _ := os.ReadFile(walPath); len(data) != len(intact) {
		t.Errorf("wal is %d bytes after truncation, want %d", len(data), len(intact))
	}
	// The truncated log must still be appendable: mutate, crash again,
	// recover cleanly.
	if _, err := s2.Mutate("dyn", []Op{{Kind: OpReroute, WireID: c.Wires[2].ID}}); err != nil {
		t.Fatalf("Mutate after truncation: %v", err)
	}
	want2, _ := s2.Get("dyn")
	s2.wal.close()
	s3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer s3.Close()
	if rec := s3.Recovery(); rec.Truncated || rec.ReplayedRecords != 3 {
		t.Errorf("third recovery = %+v, want clean 3 replays", rec)
	}
	if got, _ := s3.Get("dyn"); got != want2 {
		t.Errorf("state after second recovery:\n got %+v\nwant %+v", got, want2)
	}
}

// TestTornWALDecodeFailure: a record that frames but does not decode is
// the same torn-tail class, not a fatal error.
func TestTornWALDecodeFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c := smallCircuit(t, "dyn", 8)
	if _, err := s.Upload(c); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	want, _ := s.Get("dyn")
	s.wal.close()

	walPath := filepath.Join(dir, walFile)
	intact, _ := os.ReadFile(walPath)
	// A well-framed record whose payload names an unknown frame kind:
	// seq byte 0x7F, then version 1, kind 99.
	junk := binary.LittleEndian.AppendUint32(nil, 3)
	junk = append(junk, 0x7F, 1, 99)
	if err := os.WriteFile(walPath, append(append([]byte(nil), intact...), junk...), 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); !rec.Truncated || rec.ReplayedRecords != 1 {
		t.Errorf("recovery = %+v, want Truncated with 1 replay", rec)
	}
	if got, _ := s2.Get("dyn"); got != want {
		t.Errorf("state after decode-failure recovery:\n got %+v\nwant %+v", got, want)
	}
}

// TestMemoryBudget pins gate accounting: a full store rejects uploads
// with ErrStoreFull, and eviction frees the budget.
func TestMemoryBudget(t *testing.T) {
	s, err := Open(Config{MemBudget: slotBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a := smallCircuit(t, "a", 21)
	b := smallCircuit(t, "b", 22)
	if _, err := s.Upload(a); err != nil {
		t.Fatalf("Upload(a): %v", err)
	}
	if _, err := s.Upload(b); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("Upload(b) into full store error = %v, want ErrStoreFull", err)
	}
	if err := s.Evict("a"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if _, err := s.Upload(b); err != nil {
		t.Errorf("Upload(b) after eviction: %v", err)
	}
}

// TestOverBudgetRefusedBeforeRouting pins where a circuit whose cost
// array alone exceeds the budget is refused: before it is routed. A
// one-wire 200x50000 circuit needs a 40 MB array (and as much again for
// the routing scratch) against a 1 MiB budget; refusing it must allocate
// next to nothing, through Upload and through recovery of a store
// written without a budget — from its WAL and from its snapshot.
func TestOverBudgetRefusedBeforeRouting(t *testing.T) {
	huge := &circuit.Circuit{Name: "huge", Grid: geom.Grid{Channels: 200, Grids: 50000},
		Wires: []circuit.Wire{{ID: 0, Pins: []geom.Point{geom.Pt(1, 1), geom.Pt(9, 3)}}}}
	const budget, limit = 1 << 20, 1 << 20
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	s, err := Open(Config{MemBudget: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n := allocated(func() { _, err = s.Upload(huge) }); n >= limit || !errors.Is(err, ErrStoreFull) {
		t.Errorf("Upload: err = %v after allocating %d bytes, want ErrStoreFull under %d", err, n, limit)
	}

	for _, crash := range []bool{true, false} {
		dir := t.TempDir()
		w, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open unbudgeted: %v", err)
		}
		if _, err := w.Upload(huge); err != nil {
			t.Fatalf("unbudgeted Upload: %v", err)
		}
		if crash {
			w.wal.close() // the upload stays in the WAL alone
		} else if err := w.Close(); err != nil { // snapshot
			t.Fatalf("Close: %v", err)
		}
		if n := allocated(func() { _, err = Open(Config{Dir: dir, MemBudget: budget}) }); n >= limit || !errors.Is(err, ErrStoreFull) {
			t.Errorf("recovery (WAL only %v): err = %v after allocating %d bytes, want ErrStoreFull under %d",
				crash, err, n, limit)
		}
	}
}

// TestInfoBytesFollowsMutations pins the memory estimate Info reports
// against the circuit it describes, not the one uploaded: adding a wire
// grows it, and removing that wire again restores the upload's figure
// (no other wire's path moved).
func TestInfoBytesFollowsMutations(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	uploaded, err := s.Upload(smallCircuit(t, "dyn", 3))
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	bytes := func() int64 {
		t.Helper()
		info, ok := s.Get("dyn")
		if !ok {
			t.Fatal("dyn missing")
		}
		return info.Bytes
	}
	add := Op{Kind: OpAdd, WireID: 500, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(30, 3)}}
	if _, err := s.Mutate("dyn", []Op{add}); err != nil {
		t.Fatalf("Mutate add: %v", err)
	}
	if got := bytes(); got <= uploaded.Bytes {
		t.Errorf("Bytes after adding a wire = %d, want more than the upload's %d", got, uploaded.Bytes)
	}
	if _, err := s.Mutate("dyn", []Op{{Kind: OpRemove, WireID: 500}}); err != nil {
		t.Fatalf("Mutate remove: %v", err)
	}
	if got := bytes(); got != uploaded.Bytes {
		t.Errorf("Bytes after removing the added wire = %d, want the upload's %d", got, uploaded.Bytes)
	}
}

// TestInfoFollowsEpoch: Info's array hash and memory estimate are
// summed once per epoch and never go stale. After each of several
// mutations Get reports the new epoch, the hash of the canonical array
// and the estimate of the current wires and paths; two Gets with no
// mutation between them report equal Info.
func TestInfoFollowsEpoch(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Upload(smallCircuit(t, "dyn", 3)); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	get := func() Info {
		t.Helper()
		info, ok := s.Get("dyn")
		if !ok {
			t.Fatal("dyn missing")
		}
		return info
	}
	check := func(what string, epoch uint64) {
		t.Helper()
		info := get()
		arr, _ := s.CloneArray("dyn")
		e := s.lookup("dyn")
		e.mu.Lock()
		bytes := e.estimateBytes()
		e.mu.Unlock()
		if info.Epoch != epoch || info.ArrayHash != arr.Hash() || info.Bytes != bytes {
			t.Fatalf("%s: Info epoch %d hash %s bytes %d, want epoch %d hash %s bytes %d",
				what, info.Epoch, info.ArrayHash, info.Bytes, epoch, arr.Hash(), bytes)
		}
		if again := get(); again != info {
			t.Fatalf("%s: a second Get with no mutation between reports %+v, the first %+v", what, again, info)
		}
	}
	check("upload", 0)
	pins := []geom.Point{geom.Pt(2, 1), geom.Pt(30, 3)}
	for _, batch := range [][]Op{
		{{Kind: OpAdd, WireID: 500, Pins: pins}},
		{{Kind: OpReroute, WireID: 500, Pins: []geom.Point{geom.Pt(36, 0), geom.Pt(5, 2)}}},
		{{Kind: OpReroute, WireID: 0}, {Kind: OpAdd, WireID: 501, Pins: pins}},
		{{Kind: OpRemove, WireID: 500}},
	} {
		res, err := s.Mutate("dyn", batch)
		if err != nil {
			t.Fatalf("Mutate %+v: %v", batch, err)
		}
		check(fmt.Sprintf("after %+v", batch), res.Epoch)
	}
}

// TestMutationIncrementality pins the tentpole's cost bound: a
// single-wire mutation's work is bounded by that wire's footprint, not
// the circuit size, and its routed path stays inside the footprint.
func TestMutationIncrementality(t *testing.T) {
	c := genCircuit(t, "big", 31)
	params := route.DefaultParams().Normalized()
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	info, err := s.Upload(c)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	w := c.Wires[5]
	fp := part.Footprint(&w, params, c.Grid)
	res, err := s.Mutate("big", []Op{{Kind: OpReroute, WireID: w.ID}})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	r := res.Results[0]
	for _, i := range r.Routed.Cells {
		if cell := c.Grid.Point(int(i)); !cell.In(fp) {
			t.Fatalf("rerouted cell %v outside footprint %v", cell, fp)
		}
	}
	// Work bound: per two-pin segment the kernel walks at most
	// (MaxHVHCandidates + band height + detour slack) candidates, each
	// reading at most one footprint half-perimeter of cells.
	segs := len(w.Pins) - 1
	candidates := params.MaxHVHCandidates + fp.Dy() + 3
	walk := 2 * (fp.Dx() + fp.Dy() + 2)
	bound := segs * candidates * walk
	if r.CellsExamined > bound {
		t.Errorf("reroute examined %d cells, footprint bound is %d (footprint %v)",
			r.CellsExamined, bound, fp)
	}
	// And the macro claim: one mutation is far cheaper than the upload's
	// full routing.
	if int64(r.CellsExamined) > info.Baseline.CellsExamined/10 {
		t.Errorf("reroute examined %d cells vs %d for the full baseline — not incremental",
			r.CellsExamined, info.Baseline.CellsExamined)
	}
}

// TestConcurrentLifecycle is the store-level race smoke: uploads,
// mutations, reads and evictions of overlapping names under -race.
func TestConcurrentLifecycle(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	circs := make([]*circuit.Circuit, 4)
	for i := range circs {
		circs[i] = smallCircuit(t, string(rune('a'+i)), int64(40+i))
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			c := circs[g%len(circs)]
			for i := 0; i < 30; i++ {
				s.Upload(c)
				s.Get(c.Name)
				s.Mutate(c.Name, []Op{{Kind: OpReroute, WireID: c.Wires[i%len(c.Wires)].ID}})
				s.CloneArray(c.Name)
				if i%7 == 6 {
					s.Evict(c.Name)
				}
				s.Names()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	for _, c := range circs {
		if _, ok := s.Get(c.Name); ok {
			checkInvariant(t, s, c.Name)
		}
	}
}

// TestRerouteRoutesNewUnsortedPins pins a stale-pin regression: a
// reroute replaces the wire's pins under the same *Wire, and the
// scratch's per-wire cache of sorted pin copies — validated by that
// pointer — answered a second unsorted pin list with the first one's,
// so the wire was routed (and committed) between pins it no longer has.
func TestRerouteRoutesNewUnsortedPins(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c := smallCircuit(t, "dyn", 3)
	if _, err := s.Upload(c); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	id := c.Wires[0].ID
	for _, pins := range [][]geom.Point{
		{geom.Pt(30, 3), geom.Pt(2, 1)},
		{geom.Pt(35, 0), geom.Pt(5, 2)},
	} {
		res, err := s.Mutate("dyn", []Op{{Kind: OpReroute, WireID: id, Pins: pins}})
		if err != nil {
			t.Fatalf("Mutate: %v", err)
		}
		on := make(map[geom.Point]bool)
		for _, i := range res.Results[0].Routed.Cells {
			on[c.Grid.Point(int(i))] = true
		}
		if !on[pins[0]] || !on[pins[1]] {
			t.Fatalf("reroute onto pins %v routed %v", pins, res.Results[0].Routed.Cells)
		}
	}
	checkInvariant(t, s, "dyn")
}
