package store

// The snapshot: a point-in-time encoding of every resident circuit from
// which the canonical cost arrays are reconstructed exactly — not by
// re-routing, but by re-committing the stored per-wire paths, which is
// the canonical-array invariant applied in reverse. Layout:
//
//	8 bytes  magic "LRSTORE1"
//	uvarint  WAL sequence the snapshot covers
//	uvarint  circuit count
//	then per circuit, in ascending name order:
//	  uvarint  n, then n bytes: wire upload-frame payload of the
//	           current circuit (Client "")
//	  uvarint  mutation epoch
//	  uvarint  baseline CircuitHeight, Occupancy, CellsExamined,
//	           WiresRouted (upload-time result; mutations don't revise it)
//	  uvarint  wire count, then per wire in circuit order:
//	             uvarint id, uvarint cell count, cells as u16 LE x,y
//	  32 bytes sha256 of the canonical array's cells — load rebuilds the
//	           array from the paths and refuses a mismatch
//
// Every uvarint is minimal and nothing follows the last circuit. Load
// accepts only that canonical encoding, so a snapshot it accepts is the
// exact bytes the loaded store writes back (FuzzSnapshotLoad).
//
// The file is written to a temp name and renamed into place, so a crash
// mid-snapshot leaves the previous snapshot intact; the stored sequence
// number keeps the (then stale) WAL consistent with it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/route"
	"locusroute/internal/wire"
)

var snapMagic = []byte("LRSTORE1")

// maxSnapCells bounds one path's cell count during load — a plain
// sanity cap (a 16-bit grid has < 1<<32 cells but no sane path nears
// 1<<24) so a corrupt length cannot drive a giant allocation.
const maxSnapCells = 1 << 24

// Snapshot writes the current state to disk and truncates the WAL. It
// quiesces the store: the registry lock blocks uploads and evictions,
// and every entry lock is held (in sorted name order, the global lock
// order) so no mutation is mid-flight while encoding.
func (s *Store) Snapshot() error {
	if s.dir == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.entries))
	for name := range s.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.entries[name].mu.Lock()
	}
	defer func() {
		for _, name := range names {
			s.entries[name].mu.Unlock()
		}
	}()
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()

	buf := append([]byte(nil), snapMagic...)
	buf = binary.AppendUvarint(buf, s.wal.seq)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		var err error
		buf, err = s.entries[name].appendSnapshotLocked(buf)
		if err != nil {
			return fmt.Errorf("store: snapshot %q: %w", name, err)
		}
	}

	tmp := filepath.Join(s.dir, snapFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot create: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapFile)); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	// The snapshot covers everything logged; start the WAL over.
	if s.wal.f != nil {
		if err := s.wal.f.Truncate(0); err != nil {
			return fmt.Errorf("store: wal reset: %w", err)
		}
		if _, err := s.wal.f.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("store: wal seek: %w", err)
		}
	}
	return nil
}

// appendSnapshotLocked encodes one entry; caller holds e.mu.
func (e *entry) appendSnapshotLocked(buf []byte) ([]byte, error) {
	payload, err := wire.AppendUpload(nil, uploadFromCircuit(e.circ))
	if err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.AppendUvarint(buf, e.epoch)
	buf = binary.AppendUvarint(buf, uint64(e.baseline.CircuitHeight))
	buf = binary.AppendUvarint(buf, uint64(e.baseline.Occupancy))
	buf = binary.AppendUvarint(buf, uint64(e.baseline.CellsExamined))
	buf = binary.AppendUvarint(buf, uint64(e.baseline.WiresRouted))
	buf = binary.AppendUvarint(buf, uint64(len(e.circ.Wires)))
	for i := range e.circ.Wires {
		id := e.circ.Wires[i].ID
		p := e.paths[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(len(p.Cells)))
		for _, i := range p.Cells {
			c := e.circ.Grid.Point(int(i))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(c.X))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(c.Y))
		}
	}
	sum := sha256.New()
	var b [4]byte
	for _, c := range e.arr.Cells() {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		sum.Write(b[:])
	}
	buf = sum.Sum(buf)
	return buf, nil
}

// snapCursor is a minimal byte reader for the snapshot body.
type snapCursor struct {
	b []byte
}

func (c *snapCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || n > 1 && c.b[n-1] == 0 {
		return 0, fmt.Errorf("store: snapshot: bad or non-minimal uvarint")
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *snapCursor) take(n int) ([]byte, error) {
	if n < 0 || n > len(c.b) {
		return nil, fmt.Errorf("store: snapshot: truncated (%d bytes wanted, %d left)", n, len(c.b))
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out, nil
}

// loadSnapshot reads the snapshot (if any) and reconstructs every
// circuit's canonical array by committing its stored paths — no routing
// runs during recovery. Returns the WAL sequence the snapshot covers.
func (s *Store) loadSnapshot() (uint64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(data) < len(snapMagic) || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return 0, fmt.Errorf("store: snapshot: bad magic")
	}
	c := &snapCursor{b: data[len(snapMagic):]}
	seq, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < n; i++ {
		if err := s.loadSnapshotCircuit(c); err != nil {
			return 0, err
		}
		s.recovery.SnapshotCircuits++
	}
	if len(c.b) != 0 {
		return 0, fmt.Errorf("store: snapshot: %d bytes after the last circuit", len(c.b))
	}
	return seq, nil
}

// loadSnapshotCircuit decodes one circuit record and installs its
// entry.
func (s *Store) loadSnapshotCircuit(c *snapCursor) error {
	plen, err := c.uvarint()
	if err != nil {
		return err
	}
	payload, err := c.take(int(plen))
	if err != nil {
		return err
	}
	u, err := wire.DecodeUpload(payload)
	if err != nil {
		return fmt.Errorf("store: snapshot circuit: %w", err)
	}
	circ := CircuitFromUpload(u)
	if err := validateUpload(circ); err != nil {
		return fmt.Errorf("store: snapshot circuit %q: %w", circ.Name, err)
	}
	for name := range s.entries {
		if name >= circ.Name {
			return fmt.Errorf("store: snapshot circuit %q follows %q", circ.Name, name)
		}
	}
	if u.Client != "" {
		return fmt.Errorf("store: snapshot circuit %q names client %q", circ.Name, u.Client)
	}
	if err := s.checkArrayFits(circ); err != nil {
		return err
	}
	epoch, err := c.uvarint()
	if err != nil {
		return err
	}
	ch, err := c.uvarint()
	if err != nil {
		return err
	}
	occ, err := c.uvarint()
	if err != nil {
		return err
	}
	ce, err := c.uvarint()
	if err != nil {
		return err
	}
	wr, err := c.uvarint()
	if err != nil {
		return err
	}
	baseline := route.Result{
		CircuitHeight: int64(ch),
		Occupancy:     int64(occ),
		CellsExamined: int64(ce),
		WiresRouted:   int(wr),
	}
	nwires, err := c.uvarint()
	if err != nil {
		return err
	}
	if int(nwires) != len(circ.Wires) {
		return fmt.Errorf("store: snapshot circuit %q: %d paths for %d wires",
			circ.Name, nwires, len(circ.Wires))
	}
	arr := costarray.New(circ.Grid)
	view := route.ArrayView{A: arr}
	bounds := circ.Grid.Bounds()
	paths := make(map[int]route.Path, nwires)
	for i := uint64(0); i < nwires; i++ {
		id64, err := c.uvarint()
		if err != nil {
			return err
		}
		ncells, err := c.uvarint()
		if err != nil {
			return err
		}
		if ncells > maxSnapCells {
			return fmt.Errorf("store: snapshot circuit %q: path of %d cells", circ.Name, ncells)
		}
		raw, err := c.take(int(ncells) * 4)
		if err != nil {
			return err
		}
		cells := make([]int32, ncells)
		for j := range cells {
			x := int(binary.LittleEndian.Uint16(raw[j*4:]))
			y := int(binary.LittleEndian.Uint16(raw[j*4+2:]))
			p := geom.Pt(x, y)
			if !p.In(bounds) {
				return fmt.Errorf("store: snapshot circuit %q: path cell %v outside grid", circ.Name, p)
			}
			cells[j] = int32(y*circ.Grid.Grids + x)
		}
		id := circ.Wires[i].ID
		if id64 != uint64(id) {
			return fmt.Errorf("store: snapshot circuit %q: path %d is wire %d's, want wire %d's", circ.Name, i, id64, id)
		}
		p := route.Path{Cells: cells}
		route.Commit(view, p)
		paths[id] = p
	}
	want, err := c.take(sha256.Size)
	if err != nil {
		return err
	}
	sum := sha256.New()
	var b [4]byte
	for _, cell := range arr.Cells() {
		binary.LittleEndian.PutUint32(b[:], uint32(cell))
		sum.Write(b[:])
	}
	if !bytes.Equal(sum.Sum(nil), want) {
		return fmt.Errorf("store: snapshot circuit %q: rebuilt array hash mismatch", circ.Name)
	}
	e := &entry{
		circ:     circ,
		arr:      arr,
		paths:    paths,
		epoch:    epoch,
		baseline: baseline,
		scratch:  route.NewScratch(circ.Grid),
	}
	bytes := e.estimateBytes()
	e.slots = slotsFor(bytes)
	if !s.acquire(e.slots) {
		return fmt.Errorf("%w: recovered circuit %q needs %d bytes", ErrStoreFull, circ.Name, bytes)
	}
	s.entries[circ.Name] = e
	return nil
}
