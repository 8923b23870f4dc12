package msg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"locusroute/internal/geom"
)

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindSendLocData: "SendLocData",
		KindSendRmtData: "SendRmtData",
		KindReqRmtData:  "ReqRmtData",
		KindReqLocData:  "ReqLocData",
		KindRspRmtData:  "RspRmtData",
		KindRspLocData:  "RspLocData",
		KindDone:        "Done",
		KindContinue:    "Continue",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestKindClassification(t *testing.T) {
	for _, k := range []Kind{KindSendLocData, KindSendRmtData, KindRspRmtData, KindRspLocData} {
		if !k.IsData() {
			t.Errorf("%v must be a data kind", k)
		}
	}
	for _, k := range []Kind{KindReqLocData, KindReqRmtData, KindDone, KindContinue} {
		if k.IsData() {
			t.Errorf("%v must not be a data kind", k)
		}
	}
}

func TestEncodeDecodeDataRoundTrip(t *testing.T) {
	m := &Message{
		Kind:   KindSendLocData,
		Region: geom.R(3, 1, 6, 2), // 4x2
		Vals:   []int32{0, 1, 2, 3, -1, -2, 7, 0},
		Seq:    42,
	}
	buf, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != m.EncodedSize() {
		t.Errorf("len = %d, EncodedSize = %d", len(buf), m.EncodedSize())
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Region != m.Region || got.Seq != m.Seq {
		t.Errorf("header mismatch: %+v", got)
	}
	for i := range m.Vals {
		if got.Vals[i] != m.Vals[i] {
			t.Errorf("val %d = %d, want %d", i, got.Vals[i], m.Vals[i])
		}
	}
}

func TestEncodeDecodeRequestRoundTrip(t *testing.T) {
	m := &Message{Kind: KindReqRmtData, Region: geom.R(0, 0, 99, 9), Seq: 7}
	buf, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 11 { // header only
		t.Errorf("request packet size = %d, want 11", len(buf))
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Region != m.Region || got.Vals != nil {
		t.Errorf("decoded request = %+v", got)
	}
}

func TestEncodeErrors(t *testing.T) {
	cases := []*Message{
		{Kind: KindSendLocData, Region: geom.R(0, 0, 1, 1), Vals: []int32{1}},                // wrong payload size
		{Kind: KindReqRmtData, Region: geom.R(0, 0, 1, 1), Vals: []int32{1}},                 // payload on request
		{Kind: KindSendLocData, Region: geom.R(0, 0, 0, 0), Vals: []int32{40000}},            // value overflow
		{Kind: KindDone, Region: geom.Rect{X0: -1, Y0: 0, X1: 1, Y1: 1}},                     // negative coord
		{Kind: KindDone, Region: geom.Rect{X0: 0, Y0: 0, X1: 70000, Y1: 1}, Vals: []int32{}}, // coord overflow
	}
	for i, m := range cases {
		if _, err := m.Encode(); err == nil {
			t.Errorf("case %d: expected encode error for %+v", i, m)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Errorf("short packet must fail")
	}
	if _, err := Decode(make([]byte, 11)); err == nil {
		t.Errorf("kind 0 must fail")
	}
	// Valid header but ragged payload.
	m := &Message{Kind: KindDone, Seq: 1}
	buf, _ := m.Encode()
	if _, err := Decode(append(buf, 0x01)); err == nil {
		t.Errorf("ragged payload must fail")
	}
	// Data kind whose payload does not match the region area.
	d := &Message{Kind: KindSendRmtData, Region: geom.R(0, 0, 1, 0), Vals: []int32{1, 2}}
	buf, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0, 0) // extra cell
	if _, err := Decode(buf); err == nil {
		t.Errorf("area mismatch must fail")
	}
	// Request kind carrying payload bytes.
	r := &Message{Kind: KindReqLocData, Region: geom.R(0, 0, 1, 1)}
	buf, _ = r.Encode()
	if _, err := Decode(append(buf, 0, 0)); err == nil {
		t.Errorf("request with payload must fail")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, kindSel uint8, seq uint16) bool {
		r := rand.New(rand.NewSource(seed))
		kinds := []Kind{KindSendLocData, KindSendRmtData, KindRspRmtData, KindRspLocData}
		kind := kinds[int(kindSel)%len(kinds)]
		region := geom.R(r.Intn(100), r.Intn(20), r.Intn(100), r.Intn(20))
		vals := make([]int32, region.Area())
		for i := range vals {
			vals[i] = int32(r.Intn(200) - 100)
		}
		m := &Message{Kind: kind, Region: region, Vals: vals, Seq: seq}
		buf, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		if got.Kind != kind || got.Region != region || got.Seq != seq {
			return false
		}
		for i := range vals {
			if got.Vals[i] != vals[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNoChangeResponseRoundTrip(t *testing.T) {
	// A header-only data packet (empty region, no payload) means "no
	// changes since your last request".
	for _, kind := range []Kind{KindRspRmtData, KindRspLocData} {
		m := &Message{Kind: kind, Seq: 9}
		buf, err := m.Encode()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !got.Region.Empty() || got.Vals != nil || got.Seq != 9 {
			t.Errorf("%v round trip = %+v", kind, got)
		}
	}
}

func TestDecodeRejectsCorruptKindByte(t *testing.T) {
	m := &Message{Kind: KindContinue, Seq: 3}
	buf, _ := m.Encode()
	buf[0] = 99
	if _, err := Decode(buf); err == nil {
		t.Errorf("unknown kind must fail")
	}
}

// TestPackTaskBoundaries pins the task encoding's exact domain: the
// largest representable (wire, initiator) round-trips, and the first
// value past each limit is rejected instead of silently truncated.
func TestPackTaskBoundaries(t *testing.T) {
	valid := []struct{ wire, initiator int }{
		{0, 0},
		{TaskWireLimit - 1, 0},
		{0, TaskInitiatorLimit - 1},
		{TaskWireLimit - 1, TaskInitiatorLimit - 1},
	}
	for _, c := range valid {
		seq, err := PackTask(c.wire, c.initiator)
		if err != nil {
			t.Errorf("PackTask(%d, %d): unexpected error %v", c.wire, c.initiator, err)
			continue
		}
		wire, init := UnpackTask(seq)
		if wire != c.wire || init != c.initiator {
			t.Errorf("PackTask(%d, %d) round-tripped to (%d, %d)",
				c.wire, c.initiator, wire, init)
		}
	}
	invalid := []struct{ wire, initiator int }{
		{TaskWireLimit, 0},      // would alias (0, 1)
		{0, TaskInitiatorLimit}, // would alias (0, 0)
		{-1, 0},
		{0, -1},
		{1 << 20, 1 << 10},
	}
	for _, c := range invalid {
		if seq, err := PackTask(c.wire, c.initiator); err == nil {
			t.Errorf("PackTask(%d, %d) = %#x, want error", c.wire, c.initiator, seq)
		}
	}
}
