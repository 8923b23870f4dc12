// Package msg defines the wire format of the message passing LocusRoute's
// update packets (Section 4.3 of the paper) and their classification:
//
//	sender initiated:   SendLocData (absolute), SendRmtData (delta)
//	receiver initiated: ReqLocData/RspLocData (delta),
//	                    ReqRmtData/RspRmtData (absolute)
//
// Data packets carry the bounding box of all changes made within one owned
// region — the paper's third packet structure — as four coordinates plus a
// row-major payload of 16-bit cells. Packets are really encoded to bytes
// and decoded again, so the "MBytes transferred" numbers of the
// experiments count actual marshalled bytes, and the per-byte
// assembly/disassembly compute cost the paper observes (up to a quarter of
// processing time under frequent updates) has a concrete basis.
package msg

import (
	"encoding/binary"
	"fmt"

	"locusroute/internal/geom"
)

// Kind discriminates packet types (Figure 3 of the paper, plus the
// Done/Continue pair used for the inter-iteration barrier).
type Kind uint8

const (
	// KindSendLocData is a sender initiated update carrying the owner's
	// absolute view of (part of) its owned region. Receivers replace.
	KindSendLocData Kind = iota + 1
	// KindSendRmtData is a sender initiated update carrying the deltas a
	// non-owner has accumulated against someone else's region. The owner
	// adds them to its authoritative view.
	KindSendRmtData
	// KindReqRmtData asks the owner of a region for its absolute data.
	KindReqRmtData
	// KindReqLocData is sent by an owner asking a remote processor for
	// the deltas it has accumulated against the owner's region.
	KindReqLocData
	// KindRspRmtData answers ReqRmtData with absolute data.
	KindRspRmtData
	// KindRspLocData answers ReqLocData with delta data.
	KindRspLocData
	// KindDone tells the barrier coordinator a node finished an
	// iteration.
	KindDone
	// KindContinue releases nodes from the barrier into the next
	// iteration.
	KindContinue
	// KindReqWire asks the wire assignment processor for the next wire
	// (the dynamic distribution scheme of Section 4.2 the paper
	// describes and rejects; kept as an ablation).
	KindReqWire
	// KindWireGrant answers KindReqWire: Seq carries the granted wire
	// index, or WireGrantDone when the iteration's wires are exhausted.
	KindWireGrant
	// KindSendRmtWire is the wire-based update packet structure of
	// Section 4.3.1 (first alternative): one straight run of a routed or
	// ripped-up wire, header only — Region is the run, Seq is
	// WireFlagRoute or WireFlagRipUp. The receiver adds +1 or -1 to
	// every cell of the run.
	KindSendRmtWire
	// KindPassTask hands a routing task across a region boundary in the
	// strict-ownership scheme of Section 4.1 (the design the paper
	// rejects): Region carries the raw (current, target) point pair
	// (X0,Y0 = current cell, X1,Y1 = target cell — NOT a normalised
	// rectangle), Seq packs the wire index and the initiating processor
	// (see PackTask).
	KindPassTask
	// KindSegDone tells a wire's initiating processor that one of its
	// segments finished routing in a remote region; Seq as in
	// KindPassTask.
	KindSegDone
)

// TaskWireLimit and TaskInitiatorLimit bound what PackTask can encode:
// the 16-bit Seq field holds a 12-bit wire index and a 4-bit initiating
// processor.
const (
	TaskWireLimit      = 1 << 12
	TaskInitiatorLimit = 1 << 4
)

// PackTask packs a wire index and initiating processor into the Seq
// field of KindPassTask/KindSegDone messages. Values outside
// [0, TaskWireLimit) and [0, TaskInitiatorLimit) do not fit the 16-bit
// encoding and return an error rather than silently truncating — a
// truncated task would route the wrong wire or report completion to the
// wrong processor on circuits larger than the paper's presets.
func PackTask(wire, initiator int) (uint16, error) {
	if wire < 0 || wire >= TaskWireLimit {
		return 0, fmt.Errorf("msg: wire index %d outside task encoding range [0, %d)",
			wire, TaskWireLimit)
	}
	if initiator < 0 || initiator >= TaskInitiatorLimit {
		return 0, fmt.Errorf("msg: initiator %d outside task encoding range [0, %d)",
			initiator, TaskInitiatorLimit)
	}
	return uint16(wire) | uint16(initiator)<<12, nil
}

// UnpackTask reverses PackTask.
func UnpackTask(seq uint16) (wire, initiator int) {
	return int(seq & 0x0fff), int(seq >> 12)
}

// Seq values for KindSendRmtWire.
const (
	WireFlagRoute uint16 = 0
	WireFlagRipUp uint16 = 1
)

// WireGrantDone is the Seq value of a KindWireGrant marking the end of an
// iteration's wire supply.
const WireGrantDone = ^uint16(0)

// String names the kind as the paper does.
func (k Kind) String() string {
	switch k {
	case KindSendLocData:
		return "SendLocData"
	case KindSendRmtData:
		return "SendRmtData"
	case KindReqRmtData:
		return "ReqRmtData"
	case KindReqLocData:
		return "ReqLocData"
	case KindRspRmtData:
		return "RspRmtData"
	case KindRspLocData:
		return "RspLocData"
	case KindDone:
		return "Done"
	case KindContinue:
		return "Continue"
	case KindReqWire:
		return "ReqWire"
	case KindWireGrant:
		return "WireGrant"
	case KindSendRmtWire:
		return "SendRmtWire"
	case KindPassTask:
		return "PassTask"
	case KindSegDone:
		return "SegDone"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsData reports whether packets of this kind carry a cell payload.
func (k Kind) IsData() bool {
	switch k {
	case KindSendLocData, KindSendRmtData, KindRspRmtData, KindRspLocData:
		return true
	}
	return false
}

// Message is one LocusRoute protocol packet.
type Message struct {
	Kind Kind
	// Region is the bounding box the payload covers (data kinds), the
	// region an update is requested for (request kinds), or unused
	// (barrier kinds).
	Region geom.Rect
	// Vals is the row-major cell payload for data kinds; nil otherwise.
	Vals []int32
	// Seq carries the iteration number for barrier kinds and a request
	// sequence number for request/response matching.
	Seq uint16
}

const (
	headerSize  = 1 + 2 + 4*2 // kind + seq + 4 coords
	maxCoord    = 1<<16 - 1
	maxCellVal  = 1<<15 - 1
	minCellVal  = -(1 << 15)
	maxPayload  = 1 << 20 // sanity bound on decode
	bytesPerVal = 2
)

// EncodedSize returns the exact number of bytes Encode will produce.
func (m *Message) EncodedSize() int { return headerSize + bytesPerVal*len(m.Vals) }

// Encode marshals the message. It returns an error if coordinates or cell
// values do not fit the wire format, or if the payload length does not
// match the region for data kinds.
func (m *Message) Encode() ([]byte, error) {
	if m.Kind.IsData() {
		// An empty region with no payload is a valid "no changes"
		// response (header only).
		if len(m.Vals) != m.Region.Area() {
			return nil, fmt.Errorf("msg: %v payload %d cells for region %v (want %d)",
				m.Kind, len(m.Vals), m.Region, m.Region.Area())
		}
	} else if len(m.Vals) != 0 {
		return nil, fmt.Errorf("msg: %v must not carry a payload", m.Kind)
	}
	for _, c := range []int{m.Region.X0, m.Region.Y0, m.Region.X1, m.Region.Y1} {
		if c < 0 || c > maxCoord {
			return nil, fmt.Errorf("msg: coordinate %d out of range", c)
		}
	}
	buf := make([]byte, m.EncodedSize())
	buf[0] = byte(m.Kind)
	binary.LittleEndian.PutUint16(buf[1:], m.Seq)
	binary.LittleEndian.PutUint16(buf[3:], uint16(m.Region.X0))
	binary.LittleEndian.PutUint16(buf[5:], uint16(m.Region.Y0))
	binary.LittleEndian.PutUint16(buf[7:], uint16(m.Region.X1))
	binary.LittleEndian.PutUint16(buf[9:], uint16(m.Region.Y1))
	at := headerSize
	for _, v := range m.Vals {
		if v < minCellVal || v > maxCellVal {
			return nil, fmt.Errorf("msg: cell value %d out of int16 range", v)
		}
		binary.LittleEndian.PutUint16(buf[at:], uint16(int16(v)))
		at += bytesPerVal
	}
	return buf, nil
}

// Decode unmarshals a message produced by Encode.
func Decode(buf []byte) (*Message, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("msg: short packet (%d bytes)", len(buf))
	}
	m := &Message{Kind: Kind(buf[0])}
	if m.Kind < KindSendLocData || m.Kind > KindSegDone {
		return nil, fmt.Errorf("msg: unknown kind %d", buf[0])
	}
	m.Seq = binary.LittleEndian.Uint16(buf[1:])
	m.Region = geom.Rect{
		X0: int(binary.LittleEndian.Uint16(buf[3:])),
		Y0: int(binary.LittleEndian.Uint16(buf[5:])),
		X1: int(binary.LittleEndian.Uint16(buf[7:])),
		Y1: int(binary.LittleEndian.Uint16(buf[9:])),
	}
	payload := buf[headerSize:]
	if len(payload)%bytesPerVal != 0 {
		return nil, fmt.Errorf("msg: ragged payload (%d bytes)", len(payload))
	}
	nvals := len(payload) / bytesPerVal
	if nvals > maxPayload {
		return nil, fmt.Errorf("msg: payload too large (%d cells)", nvals)
	}
	if m.Kind.IsData() {
		if nvals != m.Region.Area() {
			return nil, fmt.Errorf("msg: %v payload %d cells for region %v (want %d)",
				m.Kind, nvals, m.Region, m.Region.Area())
		}
		if nvals > 0 {
			m.Vals = make([]int32, nvals)
			for i := range m.Vals {
				m.Vals[i] = int32(int16(binary.LittleEndian.Uint16(payload[i*bytesPerVal:])))
			}
		}
	} else if nvals != 0 {
		return nil, fmt.Errorf("msg: %v must not carry a payload", m.Kind)
	}
	return m, nil
}
