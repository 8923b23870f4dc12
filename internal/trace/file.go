package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"locusroute/internal/sim"
)

// Binary trace file format, so traces can be collected once (the
// expensive multiplexed execution) and replayed through many coherence
// configurations, the way Tango traces were used:
//
//	magic "LRTR" | version u16 | procs u16 | count u64
//	count records of: time i64 | addr u64 | proc u16 | op u8
//
// All fields little-endian.

const (
	fileMagic   = "LRTR"
	fileVersion = 1
	recordSize  = 8 + 8 + 2 + 1
	headerSize  = 4 + 2 + 2 + 8
	maxRecords  = 1 << 32 // sanity bound on read
	// maxPrealloc caps what the header's count may reserve up front: the
	// count is untrusted, and a file too short for it must fail on the
	// missing record, not on the allocation.
	maxPrealloc = 1 << 16
)

// WriteFile serialises the trace. procs records how many processors the
// trace was collected from (needed to replay it).
func WriteFile(w io.Writer, t *Trace, procs int) error {
	if procs <= 0 || procs > 1<<16-1 {
		return fmt.Errorf("trace: processor count %d out of range", procs)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	header := make([]byte, headerSize)
	copy(header, fileMagic)
	binary.LittleEndian.PutUint16(header[4:], fileVersion)
	binary.LittleEndian.PutUint16(header[6:], uint16(procs))
	binary.LittleEndian.PutUint64(header[8:], uint64(len(t.Refs)))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	rec := make([]byte, recordSize)
	for _, r := range t.Refs {
		if r.Proc < 0 || r.Proc >= procs {
			return fmt.Errorf("trace: ref from processor %d but trace has %d", r.Proc, procs)
		}
		binary.LittleEndian.PutUint64(rec, uint64(r.T))
		binary.LittleEndian.PutUint64(rec[8:], r.Addr)
		binary.LittleEndian.PutUint16(rec[16:], uint16(r.Proc))
		rec[18] = byte(r.Op)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFile parses a trace file, returning the trace and the processor
// count it was collected from. Records must be in (time, processor)
// order, as WriteFile of a merged trace leaves them: nothing downstream
// re-orders a trace, and the coherence simulator would silently account
// different traffic for a shuffled one.
func ReadFile(r io.Reader) (*Trace, int, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(header[:4]) != fileMagic {
		return nil, 0, fmt.Errorf("trace: bad magic %q", header[:4])
	}
	if v := binary.LittleEndian.Uint16(header[4:]); v != fileVersion {
		return nil, 0, fmt.Errorf("trace: unsupported version %d", v)
	}
	procs := int(binary.LittleEndian.Uint16(header[6:]))
	if procs == 0 {
		return nil, 0, fmt.Errorf("trace: zero processors")
	}
	count := binary.LittleEndian.Uint64(header[8:])
	if count > maxRecords {
		return nil, 0, fmt.Errorf("trace: implausible record count %d", count)
	}
	t := &Trace{Refs: make([]Ref, 0, min(count, maxPrealloc))}
	rec := make([]byte, recordSize)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, 0, fmt.Errorf("trace: record %d: %w", i, err)
		}
		ref := Ref{
			T:    sim.Time(binary.LittleEndian.Uint64(rec)),
			Addr: binary.LittleEndian.Uint64(rec[8:]),
			Proc: int(binary.LittleEndian.Uint16(rec[16:])),
			Op:   Op(rec[18]),
		}
		if ref.Proc >= procs {
			return nil, 0, fmt.Errorf("trace: record %d from processor %d of %d", i, ref.Proc, procs)
		}
		if ref.Op != Read && ref.Op != Write {
			return nil, 0, fmt.Errorf("trace: record %d has bad op %d", i, ref.Op)
		}
		if i > 0 {
			if prev := t.Refs[i-1]; ref.T < prev.T || (ref.T == prev.T && ref.Proc < prev.Proc) {
				return nil, 0, fmt.Errorf("trace: record %d (time %d, processor %d) is out of order after (time %d, processor %d)",
					i, ref.T, ref.Proc, prev.T, prev.Proc)
			}
		}
		t.Refs = append(t.Refs, ref)
	}
	return t, procs, nil
}
