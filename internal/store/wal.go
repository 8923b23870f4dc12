package store

// The write-ahead log. One record per committed lifecycle operation:
//
//	uint32 LE record length | uvarint seq | lifecycle frame payload
//
// The payload after the sequence number is exactly an internal/wire
// upload (kind 5), mutate (kind 6) or evict (kind 7) frame payload —
// the WAL replays through the same decoders the binary transport uses,
// and the framing reuses wire.ReadFrame. Records are fsynced on append.
//
// The sequence number is what makes snapshot+WAL composition safe: a
// snapshot stores the last sequence it covers, and replay skips records
// at or below it. A crash between writing a snapshot and truncating the
// log therefore cannot double-apply a mutation.
//
// Replay stops at the first record that fails to frame or decode —
// a torn tail from a crash mid-append — and truncates the file back to
// the last intact record (RecoveryStats.Truncated). A record that
// frames and decodes but fails to apply is different: it means the log
// and the snapshot disagree semantically, and Open fails loudly rather
// than guessing.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/wire"
)

const (
	walFile  = "wal.bin"
	snapFile = "snapshot.bin"
)

// walState is the log writer: a mutex-guarded appender over one file.
// Nested strictly inside entry locks — log calls happen while holding
// the mutated entry's mu, so log order equals apply order per circuit.
type walState struct {
	mu  sync.Mutex
	f   *os.File
	seq uint64
	buf []byte
}

// append writes one fsynced record. A nil file (in-memory store) is a
// no-op.
func (w *walState) append(enc func([]byte) ([]byte, error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	buf := append(w.buf[:0], 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, w.seq+1)
	buf, err := enc(buf)
	if err != nil {
		return fmt.Errorf("store: wal encode: %w", err)
	}
	n := len(buf) - 4
	if n > wire.MaxFrame {
		return fmt.Errorf("store: wal record %d bytes (max %d)", n, wire.MaxFrame)
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	w.seq++
	return nil
}

func (w *walState) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// logUpload records a committed upload (the store's private circuit
// copy, so later caller mutations of the argument cannot corrupt it).
func (s *Store) logUpload(c *circuit.Circuit) error {
	if s.dir == "" {
		return nil
	}
	u := uploadFromCircuit(c)
	return s.wal.append(func(dst []byte) ([]byte, error) { return wire.AppendUpload(dst, u) })
}

// logMutate records a validated batch, before it is applied — the
// classic write-ahead order; apply is infallible after validation.
func (s *Store) logMutate(name string, ops []Op) error {
	if s.dir == "" {
		return nil
	}
	m := &wire.Mutate{Circuit: name, Ops: ToWireOps(ops)}
	return s.wal.append(func(dst []byte) ([]byte, error) { return wire.AppendMutate(dst, m) })
}

// logEvict records a committed eviction.
func (s *Store) logEvict(name string) error {
	if s.dir == "" {
		return nil
	}
	e := &wire.Evict{Circuit: name}
	return s.wal.append(func(dst []byte) ([]byte, error) { return wire.AppendEvict(dst, e) })
}

// recover loads the snapshot, replays the WAL past it, and truncates
// any torn tail. Runs before the store is shared; no locking.
func (s *Store) recover() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}
	snapSeq, err := s.loadSnapshot()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal: %w", err)
	}
	s.wal.f = f
	if err := s.replayWAL(snapSeq); err != nil {
		f.Close()
		s.wal.f = nil
		return err
	}
	return nil
}

// replayWAL applies every record with seq > snapSeq. Framing or decode
// failures mark the torn tail; semantic apply failures abort recovery.
func (s *Store) replayWAL(snapSeq uint64) error {
	f := s.wal.f
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal seek: %w", err)
	}
	br := bufio.NewReader(f)
	var off, lastGood int64
	var rbuf []byte
	maxSeq := snapSeq
	torn := false
scan:
	for {
		payload, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			if err == io.EOF {
				break // clean end of log
			}
			torn = true
			break
		}
		rbuf = payload
		seq, n := binary.Uvarint(payload)
		if n <= 0 {
			torn = true
			break
		}
		if seq > snapSeq {
			switch aerr := s.applyRecord(payload[n:]); {
			case aerr == nil:
				s.recovery.ReplayedRecords++
			case errors.Is(aerr, errCorruptRecord):
				torn = true
				break scan
			default:
				return fmt.Errorf("store: wal replay (seq %d): %w", seq, aerr)
			}
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		off += int64(4 + len(payload))
		lastGood = off
	}
	if torn {
		s.recovery.Truncated = true
		if err := f.Truncate(lastGood); err != nil {
			return fmt.Errorf("store: wal truncate: %w", err)
		}
	}
	s.wal.seq = maxSeq
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: wal seek: %w", err)
	}
	return nil
}

// errCorruptRecord classifies a record whose bytes do not decode — the
// torn-tail case replayWAL truncates, as opposed to a well-formed
// record the state rejects.
var errCorruptRecord = errors.New("store: corrupt wal record")

// applyRecord replays one decoded lifecycle operation against the
// recovering store.
func (s *Store) applyRecord(payload []byte) error {
	switch wire.PayloadKind(payload) {
	case wire.KindUpload:
		u, err := wire.DecodeUpload(payload)
		if err != nil {
			return fmt.Errorf("%w: %v", errCorruptRecord, err)
		}
		c := CircuitFromUpload(u)
		if err := validateUpload(c); err != nil {
			return err
		}
		if _, dup := s.entries[c.Name]; dup {
			return fmt.Errorf("%w: replayed upload of resident circuit %q", ErrExists, c.Name)
		}
		e := s.buildEntry(c)
		if !s.acquire(e.slots) {
			return fmt.Errorf("%w: recovered circuit %q needs %d bytes", ErrStoreFull, c.Name, e.estimateBytes())
		}
		s.entries[c.Name] = e
	case wire.KindMutate:
		m, err := wire.DecodeMutate(payload)
		if err != nil {
			return fmt.Errorf("%w: %v", errCorruptRecord, err)
		}
		e := s.entries[m.Circuit]
		if e == nil {
			return fmt.Errorf("%w %q in replayed mutation", ErrUnknown, m.Circuit)
		}
		ops := FromWireOps(m.Ops)
		if err := e.validateOps(ops); err != nil {
			return err
		}
		e.apply(ops)
	case wire.KindEvict:
		v, err := wire.DecodeEvict(payload)
		if err != nil {
			return fmt.Errorf("%w: %v", errCorruptRecord, err)
		}
		e := s.entries[v.Circuit]
		if e == nil {
			return fmt.Errorf("%w %q in replayed eviction", ErrUnknown, v.Circuit)
		}
		delete(s.entries, v.Circuit)
		s.release(e.slots)
	default:
		return fmt.Errorf("%w: unknown record kind %d", errCorruptRecord, wire.PayloadKind(payload))
	}
	return nil
}

// uploadFromCircuit renders a circuit as the wire protocol's upload
// frame — the WAL and snapshot representation.
func uploadFromCircuit(c *circuit.Circuit) *wire.Upload {
	u := &wire.Upload{Name: c.Name, Channels: c.Grid.Channels, Grids: c.Grid.Grids}
	for i := range c.Wires {
		u.Wires = append(u.Wires, wire.UploadWire{
			ID:   c.Wires[i].ID,
			Pins: append([]geom.Point(nil), c.Wires[i].Pins...),
		})
	}
	return u
}

// CircuitFromUpload builds a circuit from an upload frame. Validation
// is the caller's step (validateUpload / Store.Upload).
func CircuitFromUpload(u *wire.Upload) *circuit.Circuit {
	c := &circuit.Circuit{
		Name: u.Name,
		Grid: geom.Grid{Channels: u.Channels, Grids: u.Grids},
	}
	for i := range u.Wires {
		c.Wires = append(c.Wires, circuit.Wire{
			ID:   u.Wires[i].ID,
			Pins: append([]geom.Point(nil), u.Wires[i].Pins...),
		})
	}
	return c
}

// FromWireOps converts protocol mutation ops to store ops (the op-code
// values are shared, so kinds map by identity).
func FromWireOps(ws []wire.MutateOp) []Op {
	ops := make([]Op, len(ws))
	for i := range ws {
		ops[i] = Op{
			Kind:   OpKind(ws[i].Op),
			WireID: ws[i].WireID,
			Pins:   append([]geom.Point(nil), ws[i].Pins...),
		}
	}
	return ops
}

// ToWireOps is FromWireOps' inverse.
func ToWireOps(ops []Op) []wire.MutateOp {
	ws := make([]wire.MutateOp, len(ops))
	for i := range ops {
		ws[i] = wire.MutateOp{
			Op:     uint8(ops[i].Kind),
			WireID: ops[i].WireID,
			Pins:   append([]geom.Point(nil), ops[i].Pins...),
		}
	}
	return ws
}
