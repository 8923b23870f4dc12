// Package wire is the binary route-request protocol of locusd: the
// service-layer answer to the paper's finding that message packing cost,
// not compute, dominates the MP router — at millions of requests the
// HTTP/JSON hot path is mostly encoding overhead. The protocol reuses
// internal/msg's packed-field discipline (fixed little-endian fields
// where the domain is bounded, minimal varints where it is not) and its
// fuzz contract: decoders never panic, and anything a decoder accepts
// re-encodes to the identical bytes.
//
// Framing is length-prefixed over a byte stream (TCP):
//
//	uint32 LE payload length | payload (<= MaxFrame bytes)
//
// Every payload starts with a version byte and a frame-kind byte, so the
// protocol can grow new frame types and incompatible revisions without
// guesswork on either side. The route pair is kinds 1 and 2; request
// tracing rides on them as a flag bit plus trailing fields, so an
// untraced exchange carries not one byte for it:
//
//	request  (client -> server)
//	  version=1, kind=1, flags (bit0 commit, bit1 traced),
//	  uvarint wire id, uvarint deadline_ms, str8 circuit, str8 client,
//	  uvarint pin count, pin count x (uint16 LE x, uint16 LE y),
//	  traced: str8 trace id ("" = server mints one)
//
//	response (server -> client)
//	  version=1, kind=2, status byte
//	  status OK: uvarint shard, uvarint wire id, uvarint cost,
//	    uvarint path cells, uvarint cells examined, uvarint batch size,
//	    uvarint batch index, uvarint wait micros,
//	    flags (bit0 committed, bit1 cached, bit2 traced)
//	  status != OK: uvarint retry-after seconds (0 = no hint),
//	    str16 message, flags (bit2 traced)
//	  traced: str8 request id, uvarint stage count (<= MaxStages),
//	    stage count x (stage byte, uvarint nanoseconds)
//
// str8 is a 1-byte length followed by raw bytes (<= 255); str16 a 2-byte
// LE length (<= MaxMessage). Varints are unsigned LEB128 and must be
// minimal: a decoder rejecting non-canonical encodings is what makes the
// decode-encode round trip exact, which the fuzz tests enforce the same
// way internal/msg's do.
//
// The JSON/HTTP endpoints remain the compatibility layer; this protocol
// is additive and carries exactly the same request and response fields.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"locusroute/internal/geom"
)

// Version is the protocol revision this package speaks. A frame whose
// version byte differs is rejected whole — fields are not renegotiated
// per frame.
const Version = 1

// Frame kinds, the byte after the version: the route request and
// response, and the lifecycle frames (upload/mutate/evict and their
// shared admin response, documented in lifecycle.go).
const (
	KindRequest       = 1
	KindResponse      = 2
	KindUpload        = 5
	KindMutate        = 6
	KindEvict         = 7
	KindAdminResponse = 8
)

// PayloadKind peeks at a framed payload's kind byte so a server can
// dispatch before committing to a decoder. It returns 0 (never a valid
// kind) for payloads too short to carry one or with a foreign version.
func PayloadKind(payload []byte) byte {
	if len(payload) < 2 || payload[0] != Version {
		return 0
	}
	return payload[1]
}

// Size bounds. Oversized fields are encode and decode errors, never
// silent truncations.
const (
	// MaxFrame bounds one framed payload; ReadFrame rejects larger
	// length prefixes before allocating.
	MaxFrame = 1 << 20
	// MaxName bounds the circuit and client identity strings (str8).
	MaxName = 255
	// MaxMessage bounds a response's error message (str16).
	MaxMessage = 1 << 12
	// MaxPins bounds a request's pin list.
	MaxPins = 1 << 12
	// MaxStages bounds a traced response's stage list.
	MaxStages = 32
	// maxCoord matches internal/msg's 16-bit grid coordinate domain.
	maxCoord = 1<<16 - 1
	// maxID bounds wire ids to the portable int range.
	maxID = 1<<31 - 1
)

// Flag bits: the request's, then the response's (traced on either
// layout; committed and cached only on OK).
const (
	flagCommit     = 1 << 0
	flagTraced     = 1 << 1
	reqFlagAll     = flagCommit | flagTraced
	flagCommitted  = 1 << 0
	flagCached     = 1 << 1
	flagRespTraced = 1 << 2
)

// Status is a response's outcome code. The zero value is success; the
// non-zero codes mirror the HTTP error vocabulary of the JSON layer so
// the two transports report identical outcomes.
type Status uint8

const (
	StatusOK Status = iota
	// StatusBadRequest rejects a malformed or invalid request (bad
	// payload, out-of-grid pins, too few pins).
	StatusBadRequest
	// StatusUnknownCircuit rejects a request naming an unserved circuit.
	StatusUnknownCircuit
	// StatusShed rejects a request at a full admission gate, including
	// criticality eviction; RetryAfterSeconds carries the backlog
	// estimate.
	StatusShed
	// StatusRateLimited is not sent by locusd; the number is reserved.
	StatusRateLimited
	// StatusDraining rejects new work during graceful shutdown.
	StatusDraining
	// StatusBreakerOpen is not sent by locusd; the number is reserved.
	StatusBreakerOpen
	// StatusDeadline reports a deadline that expired while the request
	// was queued or mid-batch.
	StatusDeadline
	// StatusInfeasible is not sent by locusd; the number is reserved.
	StatusInfeasible
	// StatusConflict rejects an upload naming a circuit already served,
	// or a mutation/eviction of a circuit that is not store-backed.
	StatusConflict
	// StatusStoreFull rejects an upload the circuit store's memory
	// budget cannot admit.
	StatusStoreFull

	statusMax = StatusStoreFull
)

// statuses names each status and gives the HTTP status the JSON layer
// reports for the same outcome — the cross-transport equivalence the
// tests pin.
var statuses = [...]struct {
	name string
	http int
}{
	StatusOK:             {"ok", 200},
	StatusBadRequest:     {"bad-request", 400},
	StatusUnknownCircuit: {"unknown-circuit", 404},
	StatusShed:           {"shed", 429},
	StatusRateLimited:    {"rate-limited", 429},
	StatusDraining:       {"draining", 503},
	StatusBreakerOpen:    {"breaker-open", 503},
	StatusDeadline:       {"deadline", 504},
	StatusInfeasible:     {"infeasible", 504},
	StatusConflict:       {"conflict", 409},
	StatusStoreFull:      {"store-full", 507},
}

// String names the status.
func (s Status) String() string {
	if s > statusMax {
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
	return statuses[s].name
}

// HTTPStatus maps the code to the HTTP status the JSON layer reports for
// the same outcome; an unknown code is a bad request.
func (s Status) HTTPStatus() int {
	if s > statusMax {
		return 400
	}
	return statuses[s].http
}

// Request is one route request: the binary twin of the JSON /route body
// plus the client identity the HTTP layer carries as a header.
type Request struct {
	// Circuit names a preloaded circuit (<= MaxName bytes).
	Circuit string
	// WireID labels the wire (non-negative).
	WireID int
	// Pins are the wire terminals; coordinates must fit 16 bits.
	Pins []geom.Point
	// DeadlineMillis bounds queue wait + evaluation (0 = the server's
	// default deadline).
	DeadlineMillis int64
	// Commit places the evaluated path on the circuit's serving array.
	Commit bool
	// Client identifies the caller in the server's trace record ("" =
	// the remote host, as for HTTP).
	Client string
	// Traced sets the request's traced flag, asking the server for a
	// traced response that echoes the request id and the per-stage
	// latency breakdown.
	Traced bool
	// TraceID is the caller-supplied request id the server adopts ("" =
	// the server mints one); carried only on traced requests.
	TraceID string
}

// Response is one route outcome: on StatusOK the evaluation fields of
// the JSON RouteResponse, otherwise the error vocabulary (retry hint +
// message).
type Response struct {
	Status Status

	// Evaluation fields, meaningful only on StatusOK.
	Shard         int
	WireID        int
	Cost          int64
	PathCells     int
	CellsExamined int
	BatchSize     int
	BatchIndex    int
	Committed     bool
	Cached        bool
	WaitMicros    int64

	// Error fields, meaningful only on non-OK statuses.
	RetryAfterSeconds int
	Message           string

	// Traced sets the response's traced flag: the layout carries
	// RequestID and Stages too. Servers set it only in answer to traced
	// requests.
	Traced bool
	// RequestID is the server-assigned (or adopted) request id.
	RequestID string
	// Stages is the per-stage latency breakdown; stage bytes index
	// reqtrace's taxonomy, which this package does not interpret.
	Stages []StagePair
}

// StagePair is one stage's share of a traced response's latency
// breakdown.
type StagePair struct {
	Stage uint8
	Ns    int64
}

// AppendRequest appends r's payload (no length prefix) to dst.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if r.WireID < 0 || r.WireID > maxID {
		return nil, fmt.Errorf("wire: wire id %d outside [0, %d]", r.WireID, maxID)
	}
	if r.DeadlineMillis < 0 {
		return nil, fmt.Errorf("wire: negative deadline %d ms", r.DeadlineMillis)
	}
	if !r.Traced && r.TraceID != "" {
		return nil, fmt.Errorf("wire: trace id set on an untraced request")
	}
	if len(r.TraceID) > MaxName {
		return nil, fmt.Errorf("wire: trace id %d bytes (max %d)", len(r.TraceID), MaxName)
	}
	var flags byte
	if r.Commit {
		flags |= flagCommit
	}
	if r.Traced {
		flags |= flagTraced
	}
	dst = append(dst, Version, KindRequest, flags)
	dst = binary.AppendUvarint(dst, uint64(r.WireID))
	dst = binary.AppendUvarint(dst, uint64(r.DeadlineMillis))
	dst, err := appendNames(dst, r.Circuit, r.Client)
	if err == nil {
		dst, err = appendPins(dst, r.Pins)
	}
	if err != nil {
		return nil, err
	}
	if r.Traced {
		dst = appendStr8(dst, r.TraceID)
	}
	return dst, nil
}

// DecodeRequest unmarshals a request payload produced by AppendRequest.
// Anything it accepts re-encodes to the identical bytes.
func DecodeRequest(buf []byte) (*Request, error) {
	d := decoder{buf: buf}
	d.expect("version", Version)
	d.expect("frame kind", KindRequest)
	flags := d.byte("flags")
	if d.err == nil && flags&^byte(reqFlagAll) != 0 {
		d.fail("unknown request flags %#x", flags)
	}
	r := &Request{Commit: flags&flagCommit != 0, Traced: flags&flagTraced != 0}
	r.WireID = int(d.uvarint("wire id", maxID))
	r.DeadlineMillis = int64(d.uvarint("deadline", 1<<62))
	r.Circuit = d.str8("circuit")
	r.Client = d.str8("client")
	r.Pins = d.pins()
	if r.Traced {
		r.TraceID = d.str8("trace id")
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// AppendResponse appends r's payload (no length prefix) to dst.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if r.Status > statusMax {
		return nil, fmt.Errorf("wire: unknown status %d", r.Status)
	}
	if !r.Traced && (r.RequestID != "" || len(r.Stages) > 0) {
		return nil, fmt.Errorf("wire: trace fields set on an untraced response")
	}
	var flags byte
	if r.Traced {
		flags |= flagRespTraced
	}
	dst = append(dst, Version, KindResponse, byte(r.Status))
	var err error
	if r.Status == StatusOK {
		dst, err = appendUvarints(dst, field{"shard", int64(r.Shard)}, field{"wire id", int64(r.WireID)},
			field{"cost", r.Cost}, field{"path cells", int64(r.PathCells)}, field{"cells examined", int64(r.CellsExamined)},
			field{"batch size", int64(r.BatchSize)}, field{"batch index", int64(r.BatchIndex)}, field{"wait micros", r.WaitMicros})
		if r.Committed {
			flags |= flagCommitted
		}
		if r.Cached {
			flags |= flagCached
		}
	} else {
		dst, err = appendRefusal(dst, r.RetryAfterSeconds, r.Message)
	}
	if err != nil {
		return nil, err
	}
	dst = append(dst, flags)
	if r.Traced {
		if len(r.RequestID) > MaxName {
			return nil, fmt.Errorf("wire: request id %d bytes (max %d)", len(r.RequestID), MaxName)
		}
		if len(r.Stages) > MaxStages {
			return nil, fmt.Errorf("wire: %d stages (max %d)", len(r.Stages), MaxStages)
		}
		dst = appendStr8(dst, r.RequestID)
		dst = binary.AppendUvarint(dst, uint64(len(r.Stages)))
		for _, sp := range r.Stages {
			if sp.Ns < 0 {
				return nil, fmt.Errorf("wire: negative stage duration %d ns", sp.Ns)
			}
			dst = append(dst, sp.Stage)
			dst = binary.AppendUvarint(dst, uint64(sp.Ns))
		}
	}
	return dst, nil
}

// DecodeResponse unmarshals a response payload produced by
// AppendResponse. Anything it accepts re-encodes to the identical bytes.
func DecodeResponse(buf []byte) (*Response, error) {
	d := decoder{buf: buf}
	d.expect("version", Version)
	d.expect("frame kind", KindResponse)
	status := Status(d.byte("status"))
	if d.err == nil && status > statusMax {
		d.err = fmt.Errorf("wire: unknown status %d", status)
	}
	r := &Response{Status: status}
	known := byte(flagRespTraced)
	if d.err == nil && status == StatusOK {
		r.Shard = int(d.uvarint("shard", maxID))
		r.WireID = int(d.uvarint("wire id", maxID))
		r.Cost = int64(d.uvarint("cost", 1<<62))
		r.PathCells = int(d.uvarint("path cells", maxID))
		r.CellsExamined = int(d.uvarint("cells examined", maxID))
		r.BatchSize = int(d.uvarint("batch size", maxID))
		r.BatchIndex = int(d.uvarint("batch index", maxID))
		r.WaitMicros = int64(d.uvarint("wait micros", 1<<62))
		known |= flagCommitted | flagCached
	} else if d.err == nil {
		r.RetryAfterSeconds = int(d.uvarint("retry-after", maxID))
		r.Message = d.str16("message")
	}
	flags := d.byte("flags")
	if d.err == nil && flags&^known != 0 {
		d.err = fmt.Errorf("wire: unknown response flags %#x", flags)
	}
	r.Committed = flags&flagCommitted != 0
	r.Cached = flags&flagCached != 0
	r.Traced = flags&flagRespTraced != 0
	if r.Traced {
		r.RequestID = d.str8("request id")
		nstages := int(d.uvarint("stage count", MaxStages))
		for i := 0; i < nstages && d.err == nil; i++ {
			st := d.byte("stage")
			ns := int64(d.uvarint("stage ns", 1<<62))
			r.Stages = append(r.Stages, StagePair{Stage: st, Ns: ns})
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// AppendRequestFrame appends the framed (length-prefixed) request to
// dst, ready for a single Write.
func AppendRequestFrame(dst []byte, r *Request) ([]byte, error) {
	return appendFrame(dst, func(dst []byte) ([]byte, error) { return AppendRequest(dst, r) })
}

// AppendResponseFrame appends the framed (length-prefixed) response to
// dst, ready for a single Write.
func AppendResponseFrame(dst []byte, r *Response) ([]byte, error) {
	return appendFrame(dst, func(dst []byte) ([]byte, error) { return AppendResponse(dst, r) })
}

// appendFrame reserves the length prefix, appends the payload, and
// back-fills the prefix.
func appendFrame(dst []byte, payload func([]byte) ([]byte, error)) ([]byte, error) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := payload(dst)
	if err != nil {
		return nil, err
	}
	n := len(dst) - at - 4
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d bytes (max %d)", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(n))
	return dst, nil
}

// ReadFrame reads one length-prefixed payload, reusing buf when it is
// large enough. It returns io.EOF only on a clean boundary (no bytes
// read); a frame cut short mid-payload is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// appendRefusal appends the error layout the route and admin responses
// share: uvarint retry-after seconds, str16 message.
func appendRefusal(dst []byte, retryAfterSeconds int, msg string) ([]byte, error) {
	if retryAfterSeconds < 0 {
		return nil, fmt.Errorf("wire: negative retry-after %d", retryAfterSeconds)
	}
	if len(msg) > MaxMessage {
		return nil, fmt.Errorf("wire: message %d bytes (max %d)", len(msg), MaxMessage)
	}
	dst = binary.AppendUvarint(dst, uint64(retryAfterSeconds))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...), nil
}

// field is one non-negative integer of a layout, named for the error a
// negative value gets.
type field struct {
	name string
	v    int64
}

// appendUvarints appends fields as uvarints, refusing a negative one.
func appendUvarints(dst []byte, fs ...field) ([]byte, error) {
	for _, f := range fs {
		if f.v < 0 {
			return nil, fmt.Errorf("wire: negative %s %d", f.name, f.v)
		}
		dst = binary.AppendUvarint(dst, uint64(f.v))
	}
	return dst, nil
}

// appendNames appends the circuit name and client identity (str8 each)
// every client frame carries.
func appendNames(dst []byte, circuit, client string) ([]byte, error) {
	if len(circuit) > MaxName {
		return nil, fmt.Errorf("wire: circuit name %d bytes (max %d)", len(circuit), MaxName)
	}
	if len(client) > MaxName {
		return nil, fmt.Errorf("wire: client identity %d bytes (max %d)", len(client), MaxName)
	}
	return appendStr8(appendStr8(dst, circuit), client), nil
}

// appendPins appends a pin list: uvarint count, then 16-bit LE
// coordinate pairs.
func appendPins(dst []byte, pins []geom.Point) ([]byte, error) {
	if len(pins) > MaxPins {
		return nil, fmt.Errorf("wire: %d pins (max %d)", len(pins), MaxPins)
	}
	dst = binary.AppendUvarint(dst, uint64(len(pins)))
	for _, p := range pins {
		if p.X < 0 || p.X > maxCoord || p.Y < 0 || p.Y > maxCoord {
			return nil, fmt.Errorf("wire: pin %v outside the 16-bit coordinate domain", p)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(p.X))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Y))
	}
	return dst, nil
}

// appendStr8 appends a 1-byte-length string; the caller has bounded it.
func appendStr8(dst []byte, s string) []byte {
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// decoder is a cursor over one payload with sticky error state: every
// accessor returns the zero value once an error is recorded, and finish
// rejects trailing bytes — a decoded value therefore describes the whole
// payload exactly.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *decoder) byte(name string) byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated at %s", name)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) expect(name string, want byte) {
	if got := d.byte(name); d.err == nil && got != want {
		d.fail("%s %d, want %d", name, got, want)
	}
}

func (d *decoder) u16(name string) uint16 {
	if d.err != nil {
		return 0
	}
	if d.off+2 > len(d.buf) {
		d.fail("truncated at %s", name)
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// uvarint decodes a minimal unsigned varint bounded by max. Rejecting
// non-minimal encodings (a multi-byte varint whose last byte is zero)
// keeps decode-encode an exact round trip.
func (d *decoder) uvarint(name string, max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at %s", name)
		return 0
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		d.fail("non-minimal varint at %s", name)
		return 0
	}
	d.off += n
	if v > max {
		d.fail("%s %d exceeds %d", name, v, max)
		return 0
	}
	return v
}

// pins decodes appendPins' layout.
func (d *decoder) pins() []geom.Point {
	var pins []geom.Point
	n := int(d.uvarint("pin count", MaxPins))
	for i := 0; i < n && d.err == nil; i++ {
		x := d.u16("pin x")
		y := d.u16("pin y")
		pins = append(pins, geom.Pt(int(x), int(y)))
	}
	return pins
}

func (d *decoder) str8(name string) string {
	n := int(d.byte(name))
	return d.take(name, n)
}

func (d *decoder) str16(name string) string {
	n := int(d.u16(name))
	if d.err == nil && n > MaxMessage {
		d.fail("%s %d bytes (max %d)", name, n, MaxMessage)
		return ""
	}
	return d.take(name, n)
}

func (d *decoder) take(name string, n int) string {
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated at %s", name)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}
