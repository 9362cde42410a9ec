package proto

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Kind: KindPing},
		{ID: 0xdeadbeefcafe, Kind: KindGet, Tenant: []byte("t0"), Key: []byte("alpha")},
		{ID: 2, Kind: KindPut, Tenant: []byte("tenant"), Key: []byte("k"), Value: 42},
		{ID: 3, Kind: KindAdd, Tenant: []byte(""), Key: []byte("counter"), Value: ^uint64(0)},
		{ID: 4, Kind: KindDelete, Tenant: []byte("t"), Key: []byte("gone")},
		{ID: 5, Kind: KindTransfer, Tenant: []byte("t"), Key: []byte("from"), Key2: []byte("to"), Value: 7},
	}
	for _, want := range cases {
		frame, err := AppendRequest(nil, &want)
		if err != nil {
			t.Fatalf("%v: %v", want, err)
		}
		var got Request
		if err := DecodeRequest(frame[4:], &got); err != nil {
			t.Fatalf("%v: decode: %v", want, err)
		}
		if got.ID != want.ID || got.Kind != want.Kind || got.Value != want.Value ||
			!bytes.Equal(got.Tenant, want.Tenant) || !bytes.Equal(got.Key, want.Key) ||
			!bytes.Equal(got.Key2, want.Key2) {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

// Trace context: the kind byte's high bit plus a trailing 8-byte
// trace id, costing exactly traceIDLen extra wire bytes and nothing
// on untraced frames.
func TestRequestTraceContext(t *testing.T) {
	plain, err := AppendRequest(nil, &Request{ID: 7, Kind: KindPut, Tenant: []byte("t"), Key: []byte("k"), Value: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := Request{ID: 7, Kind: KindPut, Tenant: []byte("t"), Key: []byte("k"), Value: 3, Traced: true, TraceID: 0x0123456789abcdef}
	traced, err := AppendRequest(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain)+traceIDLen {
		t.Fatalf("traced frame is %d bytes, want %d (+%d)", len(traced), len(plain)+traceIDLen, traceIDLen)
	}
	if traced[5]&kindTraceFlag == 0 {
		t.Fatal("kind byte trace flag not set")
	}
	var got Request
	if err := DecodeRequest(traced[4:], &got); err != nil {
		t.Fatal(err)
	}
	if !got.Traced || got.TraceID != want.TraceID || got.Kind != KindPut {
		t.Fatalf("decode = %+v, want traced id %x kind put", got, want.TraceID)
	}
	// Decoding an untraced frame must clear any stale trace context in
	// the reused Request value.
	if err := DecodeRequest(plain[4:], &got); err != nil {
		t.Fatal(err)
	}
	if got.Traced || got.TraceID != 0 {
		t.Fatalf("untraced decode left stale trace context: %+v", got)
	}
	// A traced frame missing its id is truncated, never misparsed.
	var q Request
	if err := DecodeRequest(traced[4:len(traced)-traceIDLen], &q); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
	// The unknown-kind check still applies under the flag.
	bad := append([]byte(nil), traced[4:]...)
	bad[1] = kindTraceFlag | byte(kindCount)
	if err := DecodeRequest(bad, &q); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("got %v, want ErrUnknownKind", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Status: StatusOK},
		{ID: 2, Status: StatusOK, Found: true, Value: 99, Epoch: 12},
		{ID: 3, Status: StatusRetryAfter, RetryAfter: 1500 * time.Microsecond},
		{ID: 4, Status: StatusInsufficient},
		{ID: 5, Status: StatusClosed},
	}
	for _, want := range cases {
		frame := AppendResponse(nil, &want)
		var got Response
		if err := DecodeResponse(frame[4:], &got); err != nil {
			t.Fatalf("%+v: decode: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

// Zero-copy contract: decoded strings alias the frame buffer.
func TestDecodeRequestAliasesFrame(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{ID: 9, Kind: KindPut, Tenant: []byte("ten"), Key: []byte("key"), Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	var q Request
	if err := DecodeRequest(frame[4:], &q); err != nil {
		t.Fatal(err)
	}
	frame[4+reqFixedLen] = 'X' // first tenant byte
	if string(q.Tenant) != "Xen" {
		t.Errorf("Tenant does not alias frame: %q", q.Tenant)
	}
}

func TestDecodeErrors(t *testing.T) {
	okReq, err := AppendRequest(nil, &Request{ID: 1, Kind: KindGet, Tenant: []byte("t"), Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	okResp := AppendResponse(nil, &Response{ID: 1, Status: StatusOK})

	t.Run("truncated request", func(t *testing.T) {
		for cut := 0; cut < len(okReq)-4; cut++ {
			var q Request
			if err := DecodeRequest(okReq[4:4+cut], &q); err == nil {
				t.Errorf("cut=%d: decode accepted truncated frame", cut)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		var q Request
		if err := DecodeRequest(append(append([]byte(nil), okReq[4:]...), 0), &q); !errors.Is(err, ErrTrailingBytes) {
			t.Errorf("got %v, want ErrTrailingBytes", err)
		}
		var p Response
		if err := DecodeResponse(append(append([]byte(nil), okResp[4:]...), 0), &p); !errors.Is(err, ErrTrailingBytes) {
			t.Errorf("got %v, want ErrTrailingBytes", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		bad := append([]byte(nil), okReq[4:]...)
		bad[1] = byte(kindCount)
		var q Request
		if err := DecodeRequest(bad, &q); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("got %v, want ErrUnknownKind", err)
		}
	})
	t.Run("unknown frame type", func(t *testing.T) {
		bad := append([]byte(nil), okReq[4:]...)
		bad[0] = 0x7f
		var q Request
		if err := DecodeRequest(bad, &q); !errors.Is(err, ErrUnknownFrame) {
			t.Errorf("got %v, want ErrUnknownFrame", err)
		}
	})
	t.Run("string lengths exceeding payload", func(t *testing.T) {
		bad := append([]byte(nil), okReq[4:]...)
		bad[10], bad[11] = 0x0f, 0xff // tenant len 4095 but payload is short
		var q Request
		if err := DecodeRequest(bad, &q); !errors.Is(err, ErrTruncated) {
			t.Errorf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("oversize string refused at encode", func(t *testing.T) {
		if _, err := AppendRequest(nil, &Request{Kind: KindGet, Key: bytes.Repeat([]byte("k"), MaxStringLen+1)}); !errors.Is(err, ErrStringTooLong) {
			t.Errorf("got %v, want ErrStringTooLong", err)
		}
	})
	t.Run("unknown status", func(t *testing.T) {
		bad := append([]byte(nil), okResp[4:]...)
		bad[1] = byte(statusCount)
		var p Response
		if err := DecodeResponse(bad, &p); !errors.Is(err, ErrUnknownStatus) {
			t.Errorf("got %v, want ErrUnknownStatus", err)
		}
	})
}

func TestFrameReader(t *testing.T) {
	var wire []byte
	var err error
	reqs := []Request{
		{ID: 1, Kind: KindPut, Tenant: []byte("t"), Key: []byte("a"), Value: 10},
		{ID: 2, Kind: KindGet, Tenant: []byte("t"), Key: []byte("a")},
		{ID: 3, Kind: KindPing},
	}
	for i := range reqs {
		wire, err = AppendRequest(wire, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(wire), 0)
	consumed := 0
	for i := range reqs {
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		consumed += 4 + len(payload)
		var q Request
		if err := DecodeRequest(payload, &q); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if q.ID != reqs[i].ID {
			t.Errorf("frame %d: id %d want %d", i, q.ID, reqs[i].ID)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("after last frame: %v, want io.EOF", err)
	}
	if consumed != len(wire) {
		t.Errorf("frames hold %d bytes, want %d", consumed, len(wire))
	}
}

// TestFrameReaderBuffered: Buffered reports the window's unreturned
// bytes at each edge — nothing read yet, a cut length prefix, a cut
// payload and several whole frames — and a Next over a whole buffered
// frame makes no Read.
func TestFrameReaderBuffered(t *testing.T) {
	var frames [][]byte
	for i := 0; i < 3; i++ {
		f, err := AppendRequest(nil, &Request{ID: uint64(i + 1), Kind: KindGet, Tenant: []byte("t"), Key: []byte("key")})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	f1, f2, f3 := frames[0], frames[1], frames[2]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, c := range []struct {
		name   string
		chunks [][]byte
		// after[i] is Buffered after the i-th Next; reads[i] the Reads it
		// has made by then.
		after, reads []int
	}{
		{"one frame a read", [][]byte{f1, f2}, []int{0, 0}, []int{1, 2}},
		{"cut prefix", [][]byte{cat(f1, f2[:2]), f2[2:]}, []int{2, 0}, []int{1, 2}},
		{"cut payload", [][]byte{cat(f1, f2[:7]), f2[7:]}, []int{7, 0}, []int{1, 2}},
		{"three whole frames", [][]byte{cat(f1, f2, f3)}, []int{len(f2) + len(f3), len(f3), 0}, []int{1, 1, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := &boundedChunkReader{chunks: c.chunks}
			fr := NewFrameReader(src, 0)
			if n := fr.Buffered(); n != 0 {
				t.Fatalf("fresh reader: Buffered %d, want 0", n)
			}
			for i := range c.after {
				if _, err := fr.Next(); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if n := fr.Buffered(); n != c.after[i] || src.reads != c.reads[i] {
					t.Fatalf("after frame %d: Buffered %d with %d Reads, want %d with %d", i, n, src.reads, c.after[i], c.reads[i])
				}
			}
			if _, err := fr.Next(); err != io.EOF || fr.Buffered() != 0 {
				t.Fatalf("at the end: %v with %d buffered, want io.EOF with 0", err, fr.Buffered())
			}
		})
	}
}

func TestFrameReaderHostileInput(t *testing.T) {
	t.Run("oversized length prefix refused without allocating", func(t *testing.T) {
		fr := NewFrameReader(strings.NewReader("\xff\xff\xff\xff garbage"), 0)
		if _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
		if len(fr.buf) != frameBufSize {
			t.Fatalf("window grew to %d on a refused frame", len(fr.buf))
		}
	})
	t.Run("zero length prefix", func(t *testing.T) {
		fr := NewFrameReader(strings.NewReader("\x00\x00\x00\x00"), 0)
		if _, err := fr.Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("cut mid-frame", func(t *testing.T) {
		frame, err := AppendRequest(nil, &Request{ID: 1, Kind: KindGet, Tenant: []byte("t"), Key: []byte("k")})
		if err != nil {
			t.Fatal(err)
		}
		fr := NewFrameReader(bytes.NewReader(frame[:len(frame)-2]), 0)
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("cut mid-prefix", func(t *testing.T) {
		fr := NewFrameReader(strings.NewReader("\x00\x00"), 0)
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

// The reader's window must be reused across frames and refills, not
// reallocated: the stream is several windows long, so frames straddle
// the window's tail and are moved to its front.
func TestFrameReaderReusesBuffer(t *testing.T) {
	var wire []byte
	var err error
	for i := 0; i < 1000; i++ {
		wire, err = AppendRequest(wire, &Request{ID: uint64(i), Kind: KindPut, Tenant: []byte("t"), Key: []byte("key"), Value: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(wire), 0)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	before := &fr.buf[0]
	for {
		if _, err := fr.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if len(wire) < 4*frameBufSize {
		t.Fatalf("stream of %d bytes does not exercise refills", len(wire))
	}
	if &fr.buf[0] != before || len(fr.buf) != frameBufSize {
		t.Error("frame window reallocated for frames that fit it")
	}
}
