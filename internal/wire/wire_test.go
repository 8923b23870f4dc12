package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"locusroute/internal/geom"
)

// sampleRequests covers the request field space: flags, empty and
// populated strings, zero and boundary pins.
func sampleRequests() []*Request {
	return []*Request{
		{Circuit: "bnrE", WireID: 7, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}},
		{Circuit: "svc", WireID: 0, Pins: []geom.Point{geom.Pt(0, 0)}, Commit: true},
		{Circuit: "c", WireID: maxID, Pins: []geom.Point{geom.Pt(maxCoord, maxCoord)},
			DeadlineMillis: 250, Client: "loadgen-3"},
		{Circuit: "", WireID: 1, Pins: nil, DeadlineMillis: 1 << 40},
		{Circuit: "bnrE", WireID: 7, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)},
			Traced: true, TraceID: "client-abc123"},
		{Circuit: "svc", WireID: 3, Pins: []geom.Point{geom.Pt(1, 1)}, Commit: true,
			Traced: true},
	}
}

// sampleResponses covers both response shapes: OK with every evaluation
// field and flag combination, and each error status with and without a
// retry hint.
func sampleResponses() []*Response {
	return []*Response{
		{Status: StatusOK, Shard: 3, WireID: 7, Cost: 412, PathCells: 38, CellsExamined: 512,
			BatchSize: 4, BatchIndex: 2, Committed: true, WaitMicros: 1200},
		{Status: StatusOK, Cached: true},
		{Status: StatusOK, Committed: true, Cached: true, Cost: 1 << 40},
		{Status: StatusShed, RetryAfterSeconds: 2, Message: "at capacity"},
		{Status: StatusRateLimited, RetryAfterSeconds: 1, Message: "client over limit"},
		{Status: StatusBreakerOpen, RetryAfterSeconds: 5, Message: "breaker open"},
		{Status: StatusDeadline, Message: "deadline exceeded"},
		{Status: StatusDraining},
		{Status: StatusUnknownCircuit, Message: "no circuit \"x\""},
		{Status: StatusBadRequest, Message: "pin outside grid"},
		{Status: StatusInfeasible, Message: "deadline below admission floor"},
		{Status: StatusOK, Shard: 1, WireID: 3, Cost: 99, PathCells: 12, CellsExamined: 80,
			BatchSize: 1, WaitMicros: 45, Traced: true, RequestID: "r0000002a",
			Stages: []StagePair{{Stage: 0, Ns: 12_400}, {Stage: 3, Ns: 901_000}, {Stage: 5, Ns: 310}}},
		{Status: StatusOK, Cached: true, Traced: true, RequestID: "client-abc123"},
		{Status: StatusShed, RetryAfterSeconds: 2, Message: "at capacity",
			Traced: true, RequestID: "r00000001", Stages: []StagePair{{Stage: 0, Ns: 8_000}}},
	}
}

// TestRequestRoundTrip checks encode->decode is the identity over the
// request samples.
func TestRequestRoundTrip(t *testing.T) {
	for _, r := range sampleRequests() {
		buf, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatalf("AppendRequest(%+v): %v", r, err)
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("DecodeRequest(%+v): %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", r, got)
		}
	}
}

// TestResponseRoundTrip checks encode->decode is the identity over the
// response samples, including that error fields don't leak into OK
// frames and vice versa.
func TestResponseRoundTrip(t *testing.T) {
	for _, r := range sampleResponses() {
		buf, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatalf("AppendResponse(%+v): %v", r, err)
		}
		got, err := DecodeResponse(buf)
		if err != nil {
			t.Fatalf("DecodeResponse(%+v): %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", r, got)
		}
	}
}

// TestFrameRoundTrip checks the length-prefixed framing through a byte
// stream, including back-to-back frames on one reader.
func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	reqs := sampleRequests()
	for _, r := range reqs {
		var err error
		stream, err = AppendRequestFrame(stream, r)
		if err != nil {
			t.Fatalf("AppendRequestFrame: %v", err)
		}
	}
	rd := bytes.NewReader(stream)
	var buf []byte
	for i, want := range reqs {
		var err error
		buf, err = ReadFrame(rd, buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("DecodeRequest %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d mismatch:\n in: %+v\nout: %+v", i, want, got)
		}
	}
	if _, err := ReadFrame(rd, buf); err != io.EOF {
		t.Errorf("ReadFrame at clean end = %v, want io.EOF", err)
	}
}

// TestReadFrameErrors checks the framing layer's failure modes: a
// truncated payload is ErrUnexpectedEOF, an oversized prefix is rejected
// before allocation.
func TestReadFrameErrors(t *testing.T) {
	frame, err := AppendRequestFrame(nil, sampleRequests()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated payload: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:2]), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated prefix: err = %v, want io.ErrUnexpectedEOF", err)
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge[:]), nil); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Errorf("oversized prefix: err = %v, want MaxFrame rejection", err)
	}
}

// TestDecodeRejections walks the decoder's rejection rules: wrong
// version, wrong kind, unknown flags and statuses, non-minimal varints,
// and trailing bytes all fail loudly.
func TestDecodeRejections(t *testing.T) {
	req, err := AppendRequest(nil, sampleRequests()[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := AppendResponse(nil, sampleResponses()[0])
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(buf []byte, at int, b byte) []byte {
		out := append([]byte(nil), buf...)
		out[at] = b
		return out
	}
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad version", mutate(req, 0, 9), "version"},
		{"response as request", resp, "frame kind"},
		{"unknown request flags", mutate(req, 2, 0x80), "flags"},
		{"traced flag without a trace id", mutate(req, 2, flagTraced), "truncated"},
		{"trailing bytes", append(append([]byte(nil), req...), 0), "trailing"},
		// wireID 7 is a 1-byte varint at offset 3; 0x87 0x00 is the same
		// value non-minimally.
		{"non-minimal varint", append(append(append([]byte(nil), req[:3]...), 0x87, 0x00), req[4:]...), "non-minimal"},
	}
	for _, c := range cases {
		if _, err := DecodeRequest(c.buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}

	if _, err := DecodeResponse(mutate(resp, 2, byte(statusMax)+1)); err == nil || !strings.Contains(err.Error(), "status") {
		t.Errorf("unknown status: err = %v, want status rejection", err)
	}
	if _, err := DecodeResponse(req); err == nil || !strings.Contains(err.Error(), "frame kind") {
		t.Errorf("request as response: err = %v, want frame kind rejection", err)
	}
	// Committed and cached describe an evaluation: an error layout's flags
	// byte carries the traced bit only.
	shed, err := AppendResponse(nil, &Response{Status: StatusShed, Message: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(mutate(shed, len(shed)-1, flagCached)); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Errorf("cached flag on an error response: err = %v, want flags rejection", err)
	}
}

// TestEncodeRejections checks the encoder refuses out-of-domain fields
// rather than truncating them.
func TestEncodeRejections(t *testing.T) {
	reqCases := []*Request{
		{Circuit: strings.Repeat("x", MaxName+1)},
		{Client: strings.Repeat("x", MaxName+1)},
		{WireID: -1},
		{WireID: maxID + 1},
		{DeadlineMillis: -1},
		{Pins: make([]geom.Point, MaxPins+1)},
		{Pins: []geom.Point{geom.Pt(maxCoord+1, 0)}},
		{Pins: []geom.Point{geom.Pt(0, -1)}},
		{Traced: true, TraceID: strings.Repeat("x", MaxName+1)},
		{TraceID: "set-but-untraced"},
	}
	for _, r := range reqCases {
		if _, err := AppendRequest(nil, r); err == nil {
			t.Errorf("AppendRequest accepted out-of-domain %+v", r)
		}
	}
	respCases := []*Response{
		{Status: statusMax + 1},
		{Status: StatusOK, Cost: -1},
		{Status: StatusShed, RetryAfterSeconds: -1},
		{Status: StatusShed, Message: strings.Repeat("x", MaxMessage+1)},
		{Status: StatusOK, RequestID: "leak-on-untraced"},
		{Status: StatusOK, Stages: []StagePair{{Stage: 0, Ns: 1}}},
		{Status: StatusOK, Traced: true, RequestID: strings.Repeat("x", MaxName+1)},
		{Status: StatusOK, Traced: true, Stages: make([]StagePair, MaxStages+1)},
		{Status: StatusOK, Traced: true, Stages: []StagePair{{Stage: 0, Ns: -1}}},
	}
	for _, r := range respCases {
		if _, err := AppendResponse(nil, r); err == nil {
			t.Errorf("AppendResponse accepted out-of-domain %+v", r)
		}
	}
}

// TestUntracedFrameGolden pins the exact bytes of an untraced request —
// tracing must never perturb its encoding — and pins that a traced
// request is the same layout with the traced flag set plus the trailing
// trace id.
func TestUntracedFrameGolden(t *testing.T) {
	plain := &Request{Circuit: "bnrE", WireID: 7, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}}
	buf, err := AppendRequest(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		1, 1, 0, // version, kind, flags
		7, 0, // wire id, deadline
		4, 'b', 'n', 'r', 'E', // circuit
		0,                       // client
		2,                       // pin count
		2, 0, 1, 0, 40, 0, 4, 0, // pins, u16 LE
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("untraced request bytes drifted:\ngot:  %x\nwant: %x", buf, want)
	}

	traced := *plain
	traced.Traced = true
	traced.TraceID = "t1"
	tbuf, err := AppendRequest(nil, &traced)
	if err != nil {
		t.Fatal(err)
	}
	twant := append(append([]byte{1, 1, 2}, want[3:]...), 2, 't', '1')
	if !bytes.Equal(tbuf, twant) {
		t.Fatalf("traced request bytes drifted:\ngot:  %x\nwant: %x", tbuf, twant)
	}
}

// TestOKResponseFrameGolden pins the exact bytes of an untraced OK
// response, the answer every untraced route request gets.
func TestOKResponseFrameGolden(t *testing.T) {
	buf, err := AppendResponse(nil, &Response{Status: StatusOK, Shard: 3, WireID: 7, Cost: 412, PathCells: 38,
		CellsExamined: 512, BatchSize: 4, BatchIndex: 2, Committed: true, Cached: true, WaitMicros: 1200})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		1, 2, 0, // version, kind, status
		3, 7, 0x9c, 0x03, 38, 0x80, 0x04, // shard, wire id, cost, path cells, cells examined
		4, 2, 0xb0, 0x09, // batch size, batch index, wait micros
		3, // flags: committed, cached
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("untraced OK response bytes drifted:\ngot:  %x\nwant: %x", buf, want)
	}
}

// TestTracedResponseFrameGolden pins the traced flag on both response
// layouts: bit 2 of the OK flags byte, and of the flags byte that ends
// the error layout, each followed by the request id and the stages.
func TestTracedResponseFrameGolden(t *testing.T) {
	for _, tc := range []struct {
		resp *Response
		want []byte
	}{
		{&Response{Status: StatusOK, WireID: 7, Cost: 9, Cached: true, Traced: true, RequestID: "r1",
			Stages: []StagePair{{Stage: 0, Ns: 300}}},
			[]byte{1, 2, 0, 0, 7, 9, 0, 0, 0, 0, 0, 6, 2, 'r', '1', 1, 0, 0xac, 0x02}},
		{&Response{Status: StatusShed, RetryAfterSeconds: 2, Message: "full"},
			[]byte{1, 2, 3, 2, 4, 0, 'f', 'u', 'l', 'l', 0}},
		{&Response{Status: StatusShed, RetryAfterSeconds: 2, Message: "full", Traced: true, RequestID: "r1"},
			[]byte{1, 2, 3, 2, 4, 0, 'f', 'u', 'l', 'l', 4, 2, 'r', '1', 0}},
	} {
		buf, err := AppendResponse(nil, tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, tc.want) {
			t.Errorf("%+v bytes drifted:\ngot:  %x\nwant: %x", tc.resp, buf, tc.want)
		}
	}
}

// TestStatusString names every status and falls back to the number for
// a code past the last one.
func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOK: "ok", StatusUnknownCircuit: "unknown-circuit", StatusStoreFull: "store-full",
		statusMax + 1: "Status(11)", 255: "Status(255)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status %d String() = %q, want %q", uint8(s), got, want)
		}
	}
}

// TestStatusHTTPEquivalence pins the status-to-HTTP map against the JSON
// layer's vocabulary, so the two transports can never drift silently.
func TestStatusHTTPEquivalence(t *testing.T) {
	want := map[Status]int{
		StatusOK:             200,
		StatusBadRequest:     400,
		StatusUnknownCircuit: 404,
		StatusShed:           429,
		StatusRateLimited:    429,
		StatusDraining:       503,
		StatusBreakerOpen:    503,
		StatusDeadline:       504,
		StatusInfeasible:     504,
		StatusConflict:       409,
		StatusStoreFull:      507,
	}
	for s, code := range want {
		if got := s.HTTPStatus(); got != code {
			t.Errorf("%v.HTTPStatus() = %d, want %d", s, got, code)
		}
	}
}
