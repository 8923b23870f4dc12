package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotLoad hands Open arbitrary bytes as its snapshot. Any input
// must either be refused or load a store whose own snapshot, written by
// Close, is the same bytes: the loader accepts only the canonical
// encoding. The store has a 1 MiB budget, so no input can make it
// allocate a larger cost array.
func FuzzSnapshotLoad(f *testing.F) {
	dir := f.TempDir()
	goldenStore(f, dir)
	snap, err := os.ReadFile(filepath.Join(dir, snapFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(append(append([]byte(nil), snapMagic...), 0, 0)) // an empty store
	f.Add(append(append([]byte(nil), snapMagic...), 0x80, 0, 0))
	f.Add(append(bytes.Clone(snap), 0))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, snapFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir, MemBudget: 1 << 20})
		if err != nil {
			return // refusing the input is fine; panicking is not
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close after loading: %v", err)
		}
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("loaded snapshot re-encodes differently:\n in: %x\nout: %x", data, out)
		}
	})
}
