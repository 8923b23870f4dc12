package wire

// The circuit-lifecycle frames: runtime upload (kind 5), mutation
// (kind 6) and eviction (kind 7), answered by one shared admin response
// (kind 8). They follow the same packed-field discipline and round-trip
// contract as the route pair, and double as the circuit store's WAL
// record payloads (internal/store) — a replayed log re-decodes with the
// exact code path the live transport uses.
//
//	upload (client -> server)
//	  version=1, kind=5, str8 name, str8 client,
//	  uvarint channels, uvarint grids, uvarint wire count,
//	  wire count x (uvarint wire id, uvarint pin count,
//	                pin count x (uint16 LE x, uint16 LE y))
//
//	mutate (client -> server)
//	  version=1, kind=6, str8 circuit, str8 client, uvarint op count,
//	  op count x (op byte (1 add, 2 remove, 3 reroute), uvarint wire id,
//	              uvarint pin count, pin count x (uint16 LE x, uint16 LE y))
//
//	evict (client -> server)
//	  version=1, kind=7, str8 circuit, str8 client
//
//	admin response (server -> client)
//	  version=1, kind=8, status byte
//	  status OK: uvarint epoch, uvarint wires, uvarint result count,
//	    result count x (op byte, uvarint wire id, uvarint cost,
//	                    uvarint path cells, uvarint cells examined)
//	  status != OK: uvarint retry-after seconds (0 = no hint),
//	    str16 message
//
// The frames carry geometry and identity only — no deadlines, no trace
// ids. Lifecycle operations are rare control-plane traffic; the data
// plane's latency machinery does not apply to them.

import (
	"encoding/binary"
	"fmt"

	"locusroute/internal/geom"
)

// Size bounds for the lifecycle frames.
const (
	// MaxWires bounds an upload's wire list.
	MaxWires = 1 << 16
	// MaxOps bounds a mutate frame's operation list.
	MaxOps = 1 << 10
)

// Mutation op codes. The values are the protocol bytes and match
// internal/store's OpKind values one-to-one.
const (
	OpAdd     uint8 = 1
	OpRemove  uint8 = 2
	OpReroute uint8 = 3
)

// Upload is one circuit upload: the full wire list, routed to a
// baseline by the server on acceptance.
type Upload struct {
	// Name names the circuit (<= MaxName bytes).
	Name string
	// Channels and Grids are the grid shape; coordinates must fit 16
	// bits. Semantic validity (>= 1) is the store's check, not the
	// codec's.
	Channels int
	Grids    int
	// Wires is the circuit's wire list.
	Wires []UploadWire
	// Client identifies the caller ("" = the remote host).
	Client string
}

// UploadWire is one wire of an uploaded circuit.
type UploadWire struct {
	ID   int
	Pins []geom.Point
}

// Mutate is one atomic batch of mutations against a served circuit.
type Mutate struct {
	Circuit string
	Client  string
	Ops     []MutateOp
}

// MutateOp is one mutation: add a wire (pins required), remove one
// (pins ignored), or reroute one (empty pins = keep the existing pins,
// re-route against current congestion).
type MutateOp struct {
	Op     uint8
	WireID int
	Pins   []geom.Point
}

// Evict removes a circuit from service.
type Evict struct {
	Circuit string
	Client  string
}

// AdminResponse answers any lifecycle frame. On StatusOK, Epoch and
// Wires describe the circuit's post-operation state and Results carries
// one outcome per mutate op (empty for upload and evict).
type AdminResponse struct {
	Status Status

	// Post-operation state, meaningful only on StatusOK.
	Epoch   uint64
	Wires   int
	Results []OpOutcome

	// Error fields, meaningful only on non-OK statuses.
	RetryAfterSeconds int
	Message           string
}

// OpOutcome reports one applied mutation: the committed path's cost and
// size for add/reroute, zeros for remove.
type OpOutcome struct {
	Op            uint8
	WireID        int
	Cost          int64
	PathCells     int
	CellsExamined int
}

// AppendUpload appends u's payload (no length prefix) to dst.
func AppendUpload(dst []byte, u *Upload) ([]byte, error) {
	if u.Channels < 0 || u.Channels > maxCoord || u.Grids < 0 || u.Grids > maxCoord {
		return nil, fmt.Errorf("wire: grid %dx%d outside the 16-bit coordinate domain", u.Channels, u.Grids)
	}
	if len(u.Wires) > MaxWires {
		return nil, fmt.Errorf("wire: %d wires (max %d)", len(u.Wires), MaxWires)
	}
	dst, err := appendNames(append(dst, Version, KindUpload), u.Name, u.Client)
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(u.Channels))
	dst = binary.AppendUvarint(dst, uint64(u.Grids))
	dst = binary.AppendUvarint(dst, uint64(len(u.Wires)))
	for i := range u.Wires {
		if dst, err = appendWire(dst, u.Wires[i].ID, u.Wires[i].Pins); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeUpload unmarshals an upload payload produced by AppendUpload.
// Anything it accepts re-encodes to the identical bytes.
func DecodeUpload(buf []byte) (*Upload, error) {
	d := decoder{buf: buf}
	d.expect("version", Version)
	d.expect("frame kind", KindUpload)
	u := &Upload{}
	u.Name = d.str8("name")
	u.Client = d.str8("client")
	u.Channels = int(d.uvarint("channels", maxCoord))
	u.Grids = int(d.uvarint("grids", maxCoord))
	nwires := int(d.uvarint("wire count", MaxWires))
	for i := 0; i < nwires && d.err == nil; i++ {
		id, pins := decodeWire(&d)
		u.Wires = append(u.Wires, UploadWire{ID: id, Pins: pins})
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return u, nil
}

// AppendMutate appends m's payload (no length prefix) to dst.
func AppendMutate(dst []byte, m *Mutate) ([]byte, error) {
	if len(m.Ops) > MaxOps {
		return nil, fmt.Errorf("wire: %d ops (max %d)", len(m.Ops), MaxOps)
	}
	dst, err := appendNames(append(dst, Version, KindMutate), m.Circuit, m.Client)
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Ops)))
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Op < OpAdd || op.Op > OpReroute {
			return nil, fmt.Errorf("wire: unknown op code %d", op.Op)
		}
		if dst, err = appendWire(append(dst, op.Op), op.WireID, op.Pins); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeMutate unmarshals a mutate payload produced by AppendMutate.
// Anything it accepts re-encodes to the identical bytes.
func DecodeMutate(buf []byte) (*Mutate, error) {
	d := decoder{buf: buf}
	d.expect("version", Version)
	d.expect("frame kind", KindMutate)
	m := &Mutate{}
	m.Circuit = d.str8("circuit")
	m.Client = d.str8("client")
	nops := int(d.uvarint("op count", MaxOps))
	for i := 0; i < nops && d.err == nil; i++ {
		op := d.byte("op code")
		if d.err == nil && (op < OpAdd || op > OpReroute) {
			d.fail("unknown op code %d", op)
			break
		}
		id, pins := decodeWire(&d)
		m.Ops = append(m.Ops, MutateOp{Op: op, WireID: id, Pins: pins})
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// AppendEvict appends e's payload (no length prefix) to dst.
func AppendEvict(dst []byte, e *Evict) ([]byte, error) {
	return appendNames(append(dst, Version, KindEvict), e.Circuit, e.Client)
}

// DecodeEvict unmarshals an evict payload produced by AppendEvict.
// Anything it accepts re-encodes to the identical bytes.
func DecodeEvict(buf []byte) (*Evict, error) {
	d := decoder{buf: buf}
	d.expect("version", Version)
	d.expect("frame kind", KindEvict)
	e := &Evict{}
	e.Circuit = d.str8("circuit")
	e.Client = d.str8("client")
	if err := d.finish(); err != nil {
		return nil, err
	}
	return e, nil
}

// AppendAdminResponse appends r's payload (no length prefix) to dst.
func AppendAdminResponse(dst []byte, r *AdminResponse) ([]byte, error) {
	if r.Status > statusMax {
		return nil, fmt.Errorf("wire: unknown status %d", r.Status)
	}
	dst = append(dst, Version, KindAdminResponse, byte(r.Status))
	if r.Status == StatusOK {
		if r.Wires < 0 || r.Wires > maxID {
			return nil, fmt.Errorf("wire: wire count %d outside [0, %d]", r.Wires, maxID)
		}
		if len(r.Results) > MaxOps {
			return nil, fmt.Errorf("wire: %d results (max %d)", len(r.Results), MaxOps)
		}
		dst = binary.AppendUvarint(dst, r.Epoch)
		dst = binary.AppendUvarint(dst, uint64(r.Wires))
		dst = binary.AppendUvarint(dst, uint64(len(r.Results)))
		for i := range r.Results {
			res := &r.Results[i]
			if res.Op < OpAdd || res.Op > OpReroute {
				return nil, fmt.Errorf("wire: unknown op code %d", res.Op)
			}
			var err error
			dst, err = appendUvarints(append(dst, res.Op), field{"wire id", int64(res.WireID)},
				field{"cost", res.Cost}, field{"path cells", int64(res.PathCells)}, field{"cells examined", int64(res.CellsExamined)})
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	return appendRefusal(dst, r.RetryAfterSeconds, r.Message)
}

// DecodeAdminResponse unmarshals a payload produced by
// AppendAdminResponse. Anything it accepts re-encodes to the identical
// bytes.
func DecodeAdminResponse(buf []byte) (*AdminResponse, error) {
	d := decoder{buf: buf}
	d.expect("version", Version)
	d.expect("frame kind", KindAdminResponse)
	status := Status(d.byte("status"))
	if d.err == nil && status > statusMax {
		d.err = fmt.Errorf("wire: unknown status %d", status)
	}
	r := &AdminResponse{Status: status}
	if d.err == nil && status == StatusOK {
		r.Epoch = d.uvarint("epoch", 1<<62)
		r.Wires = int(d.uvarint("wires", maxID))
		nres := int(d.uvarint("result count", MaxOps))
		for i := 0; i < nres && d.err == nil; i++ {
			op := d.byte("op code")
			if d.err == nil && (op < OpAdd || op > OpReroute) {
				d.fail("unknown op code %d", op)
				break
			}
			r.Results = append(r.Results, OpOutcome{
				Op:            op,
				WireID:        int(d.uvarint("wire id", maxID)),
				Cost:          int64(d.uvarint("cost", 1<<62)),
				PathCells:     int(d.uvarint("path cells", maxID)),
				CellsExamined: int(d.uvarint("cells examined", maxID)),
			})
		}
	} else if d.err == nil {
		r.RetryAfterSeconds = int(d.uvarint("retry-after", maxID))
		r.Message = d.str16("message")
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// AppendAdminResponseFrame appends the framed (length-prefixed) admin
// response to dst.
func AppendAdminResponseFrame(dst []byte, r *AdminResponse) ([]byte, error) {
	return appendFrame(dst, func(dst []byte) ([]byte, error) { return AppendAdminResponse(dst, r) })
}

// appendWire appends the shared wire-geometry layout: uvarint id, then
// the pin list (appendPins).
func appendWire(dst []byte, id int, pins []geom.Point) ([]byte, error) {
	if id < 0 || id > maxID {
		return nil, fmt.Errorf("wire: wire id %d outside [0, %d]", id, maxID)
	}
	return appendPins(binary.AppendUvarint(dst, uint64(id)), pins)
}

// decodeWire is appendWire's decoder twin.
func decodeWire(d *decoder) (id int, pins []geom.Point) {
	id = int(d.uvarint("wire id", maxID))
	return id, d.pins()
}
