package wire

import (
	"bytes"
	"reflect"
	"testing"

	"locusroute/internal/geom"
)

// sampleUploads covers the upload field space: empty and populated wire
// lists, boundary coordinates, zero grids (the codec's job is the byte
// contract; semantic validity is the store's).
func sampleUploads() []*Upload {
	return []*Upload{
		{Name: "dyn", Channels: 6, Grids: 80, Wires: []UploadWire{
			{ID: 0, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}},
			{ID: 7, Pins: []geom.Point{geom.Pt(0, 0), geom.Pt(79, 5), geom.Pt(12, 2)}},
		}, Client: "uploader"},
		{Name: "empty", Channels: 1, Grids: 1},
		{Name: "edge", Channels: maxCoord, Grids: maxCoord, Wires: []UploadWire{
			{ID: maxID, Pins: []geom.Point{geom.Pt(maxCoord, maxCoord)}},
			{ID: 3},
		}},
		{Name: "", Channels: 0, Grids: 0},
	}
}

// sampleMutates covers every op code, empty pin lists (reroute-in-place,
// remove) and populated ones.
func sampleMutates() []*Mutate {
	return []*Mutate{
		{Circuit: "dyn", Client: "mutator", Ops: []MutateOp{
			{Op: OpAdd, WireID: 900, Pins: []geom.Point{geom.Pt(1, 1), geom.Pt(30, 3)}},
			{Op: OpRemove, WireID: 7},
			{Op: OpReroute, WireID: 0},
			{Op: OpReroute, WireID: 3, Pins: []geom.Point{geom.Pt(5, 5), geom.Pt(6, 0)}},
		}},
		{Circuit: "dyn"},
		{Circuit: "c", Ops: []MutateOp{{Op: OpAdd, WireID: maxID,
			Pins: []geom.Point{geom.Pt(maxCoord, 0), geom.Pt(0, maxCoord)}}}},
	}
}

func sampleEvicts() []*Evict {
	return []*Evict{
		{Circuit: "dyn", Client: "op"},
		{Circuit: "x"},
		{Circuit: "", Client: ""},
	}
}

// sampleAdminResponses covers both shapes: OK with and without results,
// and the error statuses including the lifecycle-specific ones.
func sampleAdminResponses() []*AdminResponse {
	return []*AdminResponse{
		{Status: StatusOK, Epoch: 42, Wires: 401, Results: []OpOutcome{
			{Op: OpAdd, WireID: 900, Cost: 312, PathCells: 40, CellsExamined: 512},
			{Op: OpRemove, WireID: 7},
			{Op: OpReroute, WireID: 0, Cost: 88, PathCells: 12, CellsExamined: 130},
		}},
		{Status: StatusOK},
		{Status: StatusOK, Epoch: 1 << 40, Wires: maxID},
		{Status: StatusConflict, Message: "circuit \"dyn\" already served"},
		{Status: StatusStoreFull, RetryAfterSeconds: 3, Message: "memory budget exhausted"},
		{Status: StatusUnknownCircuit, Message: "no circuit \"x\""},
		{Status: StatusBadRequest, Message: "op 2: unknown wire 9"},
		{Status: StatusDraining},
	}
}

// TestLifecycleRoundTrips checks encode->decode is the identity over
// every lifecycle frame's samples.
func TestLifecycleRoundTrips(t *testing.T) {
	for _, u := range sampleUploads() {
		buf, err := AppendUpload(nil, u)
		if err != nil {
			t.Fatalf("AppendUpload(%+v): %v", u, err)
		}
		got, err := DecodeUpload(buf)
		if err != nil {
			t.Fatalf("DecodeUpload(%+v): %v", u, err)
		}
		if !reflect.DeepEqual(got, u) {
			t.Errorf("upload round trip mismatch:\n in: %+v\nout: %+v", u, got)
		}
	}
	for _, m := range sampleMutates() {
		buf, err := AppendMutate(nil, m)
		if err != nil {
			t.Fatalf("AppendMutate(%+v): %v", m, err)
		}
		got, err := DecodeMutate(buf)
		if err != nil {
			t.Fatalf("DecodeMutate(%+v): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("mutate round trip mismatch:\n in: %+v\nout: %+v", m, got)
		}
	}
	for _, e := range sampleEvicts() {
		buf, err := AppendEvict(nil, e)
		if err != nil {
			t.Fatalf("AppendEvict(%+v): %v", e, err)
		}
		got, err := DecodeEvict(buf)
		if err != nil {
			t.Fatalf("DecodeEvict(%+v): %v", e, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("evict round trip mismatch:\n in: %+v\nout: %+v", e, got)
		}
	}
	for _, r := range sampleAdminResponses() {
		buf, err := AppendAdminResponse(nil, r)
		if err != nil {
			t.Fatalf("AppendAdminResponse(%+v): %v", r, err)
		}
		got, err := DecodeAdminResponse(buf)
		if err != nil {
			t.Fatalf("DecodeAdminResponse(%+v): %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("admin response round trip mismatch:\n in: %+v\nout: %+v", r, got)
		}
	}
}

// TestLifecycleFrameGolden pins the exact bytes of one upload, one mutate
// and one evict payload. They are the circuit store's WAL records, so any
// drift here would leave stores written before it unrecoverable.
func TestLifecycleFrameGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		encode func() ([]byte, error)
		want   []byte
	}{
		{"upload", func() ([]byte, error) {
			return AppendUpload(nil, &Upload{Name: "dyn", Client: "up", Channels: 6, Grids: 300, Wires: []UploadWire{
				{ID: 0, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}},
				{ID: 200, Pins: []geom.Point{geom.Pt(299, 5)}},
			}})
		}, []byte{
			1, 5, // version, kind
			3, 'd', 'y', 'n', 2, 'u', 'p', // name, client
			6, 0xac, 0x02, 2, // channels, grids (uvarint 300), wire count
			0, 2, 2, 0, 1, 0, 40, 0, 4, 0, // wire 0: id, pin count, pins
			0xc8, 0x01, 1, 0x2b, 0x01, 5, 0, // wire 200: id, pin count, pin
		}},
		{"mutate", func() ([]byte, error) {
			return AppendMutate(nil, &Mutate{Circuit: "dyn", Ops: []MutateOp{
				{Op: OpAdd, WireID: 900, Pins: []geom.Point{geom.Pt(1, 1), geom.Pt(30, 3)}},
				{Op: OpRemove, WireID: 7},
				{Op: OpReroute, WireID: 0},
			}})
		}, []byte{
			1, 6, // version, kind
			3, 'd', 'y', 'n', 0, 3, // circuit, client, op count
			1, 0x84, 0x07, 2, 1, 0, 1, 0, 30, 0, 3, 0, // add 900
			2, 7, 0, // remove 7
			3, 0, 0, // reroute 0 in place
		}},
		{"evict", func() ([]byte, error) {
			return AppendEvict(nil, &Evict{Circuit: "dyn", Client: "op"})
		}, []byte{1, 7, 3, 'd', 'y', 'n', 2, 'o', 'p'}},
		// The admin response is not logged, but it shares the error layout
		// with the route response, so it is pinned beside them.
		{"admin ok", func() ([]byte, error) {
			return AppendAdminResponse(nil, &AdminResponse{Status: StatusOK, Epoch: 2, Wires: 17,
				Results: []OpOutcome{{Op: OpAdd, WireID: 900, Cost: 130, PathCells: 12, CellsExamined: 300}}})
		}, []byte{1, 8, 0, 2, 17, 1, 1, 0x84, 0x07, 0x82, 0x01, 12, 0xac, 0x02}},
		{"admin error", func() ([]byte, error) {
			return AppendAdminResponse(nil, &AdminResponse{Status: StatusStoreFull, RetryAfterSeconds: 3, Message: "full"})
		}, []byte{1, 8, 10, 3, 4, 0, 'f', 'u', 'l', 'l'}},
	} {
		got, err := tc.encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s frame bytes drifted:\ngot:  %x\nwant: %x", tc.name, got, tc.want)
		}
	}
}

// TestPayloadKind pins the dispatch peek: every frame kind identifies
// itself, and short or foreign-version payloads report 0.
func TestPayloadKind(t *testing.T) {
	u, _ := AppendUpload(nil, sampleUploads()[0])
	m, _ := AppendMutate(nil, sampleMutates()[0])
	e, _ := AppendEvict(nil, sampleEvicts()[0])
	a, _ := AppendAdminResponse(nil, sampleAdminResponses()[0])
	req, _ := AppendRequest(nil, sampleRequests()[0])
	cases := []struct {
		payload []byte
		want    byte
	}{
		{req, KindRequest},
		{u, KindUpload},
		{m, KindMutate},
		{e, KindEvict},
		{a, KindAdminResponse},
		{nil, 0},
		{[]byte{Version}, 0},
		{[]byte{Version + 1, KindRequest}, 0},
	}
	for _, c := range cases {
		if got := PayloadKind(c.payload); got != c.want {
			t.Errorf("PayloadKind(%x) = %d, want %d", c.payload, got, c.want)
		}
	}
}

// TestLifecycleDecodeRejections checks the codec rejects op codes and
// statuses outside the vocabulary, and cross-kind confusion.
func TestLifecycleDecodeRejections(t *testing.T) {
	m, _ := AppendMutate(nil, &Mutate{Circuit: "c", Ops: []MutateOp{{Op: OpAdd, WireID: 1}}})
	bad := append([]byte(nil), m...)
	bad[len(bad)-3] = 9 // op byte -> unknown code
	if _, err := DecodeMutate(bad); err == nil {
		t.Error("DecodeMutate accepted an unknown op code")
	}
	u, _ := AppendUpload(nil, sampleUploads()[0])
	if _, err := DecodeMutate(u); err == nil {
		t.Error("DecodeMutate accepted an upload frame")
	}
	if _, err := DecodeUpload(m); err == nil {
		t.Error("DecodeUpload accepted a mutate frame")
	}
	a, _ := AppendAdminResponse(nil, &AdminResponse{Status: StatusDraining})
	bad = append([]byte(nil), a...)
	bad[2] = byte(statusMax) + 1
	if _, err := DecodeAdminResponse(bad); err == nil {
		t.Error("DecodeAdminResponse accepted an unknown status")
	}
	if _, err := AppendMutate(nil, &Mutate{Ops: []MutateOp{{Op: 0}}}); err == nil {
		t.Error("AppendMutate accepted op code 0")
	}
	if _, err := AppendUpload(nil, &Upload{Channels: maxCoord + 1, Grids: 1}); err == nil {
		t.Error("AppendUpload accepted an out-of-domain grid")
	}
}
