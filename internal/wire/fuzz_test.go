package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bytes to the request decoder: it
// must never panic, and anything it accepts must re-encode to the same
// bytes — the same decode-encode contract internal/msg's fuzzer pins.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range sampleRequests() {
		buf, err := AppendRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, KindRequest})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// The traced flag with its trace id, and with it missing.
	f.Add([]byte{Version, KindRequest, flagCommit | flagTraced, 7, 0, 1, 'c', 0, 1, 2, 0, 1, 0, 2, 'i', 'd'})
	f.Add([]byte{Version, KindRequest, flagTraced, 7, 0, 1, 'c', 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequest(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		out, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatalf("decoded request failed to re-encode: %v (%+v)", err, r)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not a round trip:\n in: %x\nout: %x", data, out)
		}
	})
}

// FuzzDecodeResponse is the response-side twin of FuzzDecodeRequest.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range sampleResponses() {
		buf, err := AppendResponse(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, KindResponse, byte(StatusOK)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// The traced flag on an OK layout and on an error layout.
	f.Add([]byte{Version, KindResponse, byte(StatusOK), 0, 7, 9, 0, 0, 0, 0, 0, flagCached | flagRespTraced, 2, 'r', '1', 1, 0, 1})
	f.Add([]byte{Version, KindResponse, byte(StatusShed), 2, 1, 0, 'x', flagRespTraced, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResponse(data)
		if err != nil {
			return
		}
		out, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatalf("decoded response failed to re-encode: %v (%+v)", err, r)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not a round trip:\n in: %x\nout: %x", data, out)
		}
	})
}

// FuzzDecodeUpload pins the upload frame's decode-encode round trip.
func FuzzDecodeUpload(f *testing.F) {
	for _, u := range sampleUploads() {
		buf, err := AppendUpload(nil, u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, KindUpload})

	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeUpload(data)
		if err != nil {
			return
		}
		out, err := AppendUpload(nil, u)
		if err != nil {
			t.Fatalf("decoded upload failed to re-encode: %v (%+v)", err, u)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not a round trip:\n in: %x\nout: %x", data, out)
		}
	})
}

// FuzzDecodeMutate pins the mutate frame's decode-encode round trip.
func FuzzDecodeMutate(f *testing.F) {
	for _, m := range sampleMutates() {
		buf, err := AppendMutate(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, KindMutate})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMutate(data)
		if err != nil {
			return
		}
		out, err := AppendMutate(nil, m)
		if err != nil {
			t.Fatalf("decoded mutate failed to re-encode: %v (%+v)", err, m)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not a round trip:\n in: %x\nout: %x", data, out)
		}
	})
}

// FuzzDecodeEvict pins the evict frame's decode-encode round trip.
func FuzzDecodeEvict(f *testing.F) {
	for _, e := range sampleEvicts() {
		buf, err := AppendEvict(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, KindEvict})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEvict(data)
		if err != nil {
			return
		}
		out, err := AppendEvict(nil, e)
		if err != nil {
			t.Fatalf("decoded evict failed to re-encode: %v (%+v)", err, e)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not a round trip:\n in: %x\nout: %x", data, out)
		}
	})
}

// FuzzDecodeAdminResponse pins the admin response's decode-encode round
// trip.
func FuzzDecodeAdminResponse(f *testing.F) {
	for _, r := range sampleAdminResponses() {
		buf, err := AppendAdminResponse(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, KindAdminResponse, byte(StatusOK)})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeAdminResponse(data)
		if err != nil {
			return
		}
		out, err := AppendAdminResponse(nil, r)
		if err != nil {
			t.Fatalf("decoded admin response failed to re-encode: %v (%+v)", err, r)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not a round trip:\n in: %x\nout: %x", data, out)
		}
	})
}
