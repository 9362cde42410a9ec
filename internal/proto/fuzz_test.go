package proto

import (
	"bytes"
	"io"
	"testing"
)

// FuzzFrameDecode throws arbitrary bytes at the whole decode surface:
// the frame reader (length-prefix handling) and both payload decoders.
// Invariants pinned here:
//
//   - no input panics or hangs;
//   - the frame reader never allocates past its cap (hostile length
//     prefixes are refused before the buffer grows);
//   - a payload DecodeRequest accepts re-encodes byte-identically
//     (decode∘encode is the identity on valid frames).
//
// The committed corpus under testdata/fuzz/FuzzFrameDecode seeds
// truncated frames, oversized length prefixes, unknown opcodes,
// unknown frame types and valid frames of every kind.
func FuzzFrameDecode(f *testing.F) {
	// Valid frames of each kind (payload-level and full-frame).
	for _, q := range []Request{
		{ID: 1, Kind: KindPing},
		{ID: 2, Kind: KindGet, Tenant: []byte("t"), Key: []byte("k")},
		{ID: 3, Kind: KindPut, Tenant: []byte("tenant"), Key: []byte("key"), Value: 77},
		{ID: 4, Kind: KindTransfer, Tenant: []byte("t"), Key: []byte("a"), Key2: []byte("b"), Value: 5},
		// Trace-context frames: the kind byte's trace flag plus the
		// trailing 8-byte trace id.
		{ID: 5, Kind: KindPut, Tenant: []byte("t"), Key: []byte("k"), Value: 9, Traced: true, TraceID: 0xdeadbeefcafef00d},
		{ID: 6, Kind: KindGet, Tenant: []byte("t"), Key: []byte("k"), Traced: true},
	} {
		frame, err := AppendRequest(nil, &q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[4:])
	}
	resp := AppendResponse(nil, &Response{ID: 9, Status: StatusRetryAfter, RetryAfter: 100})
	f.Add(resp)
	f.Add(resp[4:])
	// Hostile shapes.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                   // oversized prefix
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})                   // zero prefix
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, 0x01, 0x63})       // truncated payload
	f.Add([]byte{0x01, 0xee, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown opcode
	// Traced flag set but trace id missing: must fail as truncated.
	trunc, err := AppendRequest(nil, &Request{ID: 7, Kind: KindGet, Tenant: []byte("t"), Key: []byte("k"), Traced: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trunc[4 : len(trunc)-traceIDLen])

	f.Fuzz(func(t *testing.T, data []byte) {
		// Payload-level decoders on the raw input.
		var q Request
		if err := DecodeRequest(data, &q); err == nil {
			re, err := AppendRequest(nil, &q)
			if err != nil {
				t.Fatalf("decoded request %+v does not re-encode: %v", q, err)
			}
			if !bytes.Equal(re[4:], data) {
				t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", data, re[4:])
			}
		}
		var p Response
		if err := DecodeResponse(data, &p); err == nil {
			re := AppendResponse(nil, &p)
			if !bytes.Equal(re[4:], data) {
				t.Fatalf("response re-encode mismatch:\n in: %x\nout: %x", data, re[4:])
			}
		}
		// Frame reader over the input as a byte stream: walk every
		// frame until an error; decode whatever comes out.
		fr := NewFrameReader(bytes.NewReader(data), 0)
		for i := 0; i < 64; i++ {
			payload, err := fr.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					err != ErrFrameTooLarge && err != ErrTruncated {
					t.Fatalf("unexpected frame reader error: %v", err)
				}
				break
			}
			if len(fr.buf) > 4+MaxFrame {
				t.Fatalf("frame buffer over-allocated: %d", len(fr.buf))
			}
			DecodeRequest(payload, &q)
			DecodeResponse(payload, &p)
		}
	})
}
