package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"locusroute/internal/sim"
)

func sampleTrace() *Trace {
	t := &Trace{}
	t.Append(Ref{T: 10, Proc: 0, Addr: 0x40, Op: Read})
	t.Append(Ref{T: 20, Proc: 3, Addr: 0x44, Op: Write})
	t.Append(Ref{T: 30, Proc: 1, Addr: 1 << 40, Op: Read})
	return t
}

func TestFileRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteFile(&buf, orig, 4); err != nil {
		t.Fatal(err)
	}
	got, procs, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if procs != 4 {
		t.Errorf("procs = %d, want 4", procs)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("lengths differ")
	}
	for i := range orig.Refs {
		if got.Refs[i] != orig.Refs[i] {
			t.Errorf("ref %d = %+v, want %+v", i, got.Refs[i], orig.Refs[i])
		}
	}
}

func TestFileEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, &Trace{}, 2); err != nil {
		t.Fatal(err)
	}
	got, procs, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || procs != 2 {
		t.Errorf("empty round trip wrong: %d refs, %d procs", got.Len(), procs)
	}
}

func TestWriteFileValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, sampleTrace(), 0); err == nil {
		t.Errorf("zero procs must fail")
	}
	// A ref from processor 3 cannot be written as a 2-processor trace.
	if err := WriteFile(&buf, sampleTrace(), 2); err == nil {
		t.Errorf("out-of-range processor must fail")
	}
}

func TestReadFileErrors(t *testing.T) {
	// Bad magic.
	if _, _, err := ReadFile(strings.NewReader("XXXX0000000000000000")); err == nil {
		t.Errorf("bad magic must fail")
	}
	// Truncated records.
	var buf bytes.Buffer
	if err := WriteFile(&buf, sampleTrace(), 4); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := ReadFile(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Errorf("truncated file must fail")
	}
	// Corrupt op byte.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] = 9
	if _, _, err := ReadFile(bytes.NewReader(corrupt)); err == nil {
		t.Errorf("bad op must fail")
	}
	// Short header.
	if _, _, err := ReadFile(strings.NewReader("LR")); err == nil {
		t.Errorf("short header must fail")
	}
	// A header claiming the largest count with no records behind it
	// fails on the first missing record, not by reserving 128 GiB.
	huge := append([]byte(nil), data[:headerSize]...)
	binary.LittleEndian.PutUint64(huge[8:], maxRecords)
	if _, _, err := ReadFile(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "record 0") {
		t.Errorf("huge count over an empty body: err = %v, want a record 0 error", err)
	}
	// Records out of (time, processor) order: nothing re-sorts a loaded
	// trace, so the file is refused, naming the record.
	for _, refs := range [][]Ref{
		{{T: 10, Proc: 0}, {T: 20, Proc: 1}, {T: 19, Proc: 2}}, // time steps back
		{{T: 10, Proc: 0}, {T: 20, Proc: 2}, {T: 20, Proc: 1}}, // tie, processor steps back
	} {
		buf.Reset()
		if err := WriteFile(&buf, &Trace{Refs: refs}, 4); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFile(&buf); err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Errorf("mis-ordered %+v: err = %v, want a record 2 error", refs, err)
		}
	}
	// Equal (time, processor) neighbours are one process's burst: legal.
	buf.Reset()
	if err := WriteFile(&buf, &Trace{Refs: []Ref{{T: 7, Proc: 1}, {T: 7, Proc: 1, Addr: 4}}}, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(&buf); err != nil {
		t.Errorf("equal neighbours rejected: %v", err)
	}
}

func TestFileTimePreserved(t *testing.T) {
	tr := &Trace{}
	tr.Append(Ref{T: sim.Time(123456789), Proc: 0, Addr: 8, Op: Write})
	var buf bytes.Buffer
	if err := WriteFile(&buf, tr, 1); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Refs[0].T != sim.Time(123456789) {
		t.Errorf("time = %v", got.Refs[0].T)
	}
}
