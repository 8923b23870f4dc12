package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
)

// Golden digests of the on-disk bytes of goldenStore's fixed lifecycle:
// the WAL before Close and the snapshot Close writes. Path cells are
// stored as little-endian uint16 (x, y) pairs whatever the in-memory
// path representation, so a kernel or store change that moves either
// digest has changed the file format or the routing.
const (
	goldenWALSHA      = "17d6a5942dbbc6de91db8b4b6bba5cd16cb0a722e4682b1a025c9c781bf1f46b"
	goldenSnapshotSHA = "378f49cc750f51260336f38fddb73a4fdc768799808e825dfbcccc874e920ed9"
)

// goldenStore runs one fixed lifecycle on a store in dir: two uploads,
// then an add of a three-pin wire, a reroute with new pins, a plain
// reroute and a remove, and returns the WAL's bytes before Close.
func goldenStore(t testing.TB, dir string) []byte {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a := smallCircuit(t, "a", 31)
	b, err := circuit.Generate(circuit.GenParams{Name: "b", Channels: 9, Grids: 120, Wires: 40, Seed: 32})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, c := range []*circuit.Circuit{a, b} {
		if _, err := s.Upload(c); err != nil {
			t.Fatalf("Upload(%s): %v", c.Name, err)
		}
	}
	if _, err := s.Mutate("b", []Op{
		{Kind: OpAdd, WireID: 700, Pins: []geom.Point{geom.Pt(3, 1), geom.Pt(90, 7), geom.Pt(50, 4)}},
		{Kind: OpReroute, WireID: b.Wires[5].ID, Pins: []geom.Point{geom.Pt(110, 8), geom.Pt(2, 0)}},
		{Kind: OpReroute, WireID: b.Wires[9].ID},
		{Kind: OpRemove, WireID: b.Wires[12].ID},
	}); err != nil {
		t.Fatalf("Mutate b: %v", err)
	}
	if _, err := s.Mutate("a", []Op{{Kind: OpRemove, WireID: a.Wires[0].ID}}); err != nil {
		t.Fatalf("Mutate a: %v", err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return wal
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSnapshotBytesGolden pins the WAL and snapshot bytes of one fixed
// lifecycle, and that the snapshot reloads into a store whose own
// snapshot is the same bytes.
func TestSnapshotBytesGolden(t *testing.T) {
	dir := t.TempDir()
	wal := goldenStore(t, dir)
	snap, err := os.ReadFile(filepath.Join(dir, snapFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(wal); got != goldenWALSHA {
		t.Errorf("WAL sha256 = %s, want %s", got, goldenWALSHA)
	}
	if got := sha(snap); got != goldenSnapshotSHA {
		t.Errorf("snapshot sha256 = %s, want %s", got, goldenSnapshotSHA)
	}
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	again, err := os.ReadFile(filepath.Join(dir, snapFile))
	if err != nil {
		t.Fatal(err)
	}
	if sha(again) != sha(snap) {
		t.Errorf("snapshot re-encoded after reload differs: %s, want %s", sha(again), sha(snap))
	}
}
