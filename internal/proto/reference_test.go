package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"memsnap/internal/sim"
)

// refFrameReader is the frame reader as it stood before the buffered
// window: two io.ReadFull calls per frame straight on the source, the
// payload buffer grown to the largest frame seen. It is kept,
// test-only, as the executable definition of what Next returns —
// payloads, the four error outcomes and the bytes consumed — so the
// differential tests below can hold FrameReader to it on any stream,
// however the source chops it up. Its one departure from the old code
// is that a cut prefix books the bytes actually read, not 4.
type refFrameReader struct {
	r   io.Reader
	buf []byte
	max int
	n   int64
}

func newRefFrameReader(r io.Reader, max int) *refFrameReader {
	if max <= 0 {
		max = MaxFrame
	}
	return &refFrameReader{r: r, buf: make([]byte, 512), max: max}
}

func (fr *refFrameReader) Next() ([]byte, error) {
	var hdr [4]byte
	m, err := io.ReadFull(fr.r, hdr[:])
	fr.n += int64(m)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrTruncated
	}
	if int64(n) > int64(fr.max) {
		return nil, ErrFrameTooLarge
	}
	if int(n) > len(fr.buf) {
		fr.buf = make([]byte, int(n))
	}
	payload := fr.buf[:n]
	m, err = io.ReadFull(fr.r, payload)
	fr.n += int64(m)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

func (fr *refFrameReader) BytesRead() int64 { return fr.n }

// appendRawFrame appends a frame of n random payload bytes. The frame
// reader never looks inside a payload, so random bytes exercise it as
// well as encoded requests do and can be any size up to the cap.
func appendRawFrame(dst []byte, n int, rng *sim.RNG) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for i := 0; i < n; i++ {
		dst = append(dst, byte(rng.Uint64()))
	}
	return dst
}

// randChunkReader delivers its data in random pieces of 1..maxChunk
// bytes, the way a TCP stream arrives.
type randChunkReader struct {
	data     []byte
	rng      *sim.RNG
	maxChunk int
}

func (r *randChunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(1+r.rng.Intn(r.maxChunk), len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// boundedChunkReader delivers at most one of its chunks per Read: a
// pipelined peer's burst arriving whole.
type boundedChunkReader struct {
	chunks [][]byte
	reads  int
}

func (r *boundedChunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// diffReaders drives the reference over ref and FrameReader over got —
// two sources holding the same stream — call by call until both report
// io.EOF, and fails on the first difference in payload, error value or
// bytes consumed. It returns the frames delivered.
func diffReaders(t *testing.T, name string, ref, got io.Reader, max int, total int) int {
	t.Helper()
	want, fr := newRefFrameReader(ref, max), NewFrameReader(got, max)
	frames := 0
	for call := 0; ; call++ {
		wp, werr := want.Next()
		gp, gerr := fr.Next()
		if werr != gerr {
			t.Fatalf("%s: call %d: err = %v, reference %v", name, call, gerr, werr)
		}
		if !bytes.Equal(wp, gp) {
			t.Fatalf("%s: call %d: payload of %d bytes differs from the reference's %d", name, call, len(gp), len(wp))
		}
		if fr.n != want.BytesRead() {
			t.Fatalf("%s: call %d: BytesRead = %d, reference %d", name, call, fr.n, want.BytesRead())
		}
		if len(fr.buf)-4 > fr.max && len(fr.buf) > frameBufSize {
			t.Fatalf("%s: call %d: window grew to %d bytes, cap is %d", name, call, len(fr.buf), 4+fr.max)
		}
		if werr == io.EOF {
			break
		}
		if werr == nil {
			frames++
		}
		if call > total {
			t.Fatalf("%s: no io.EOF after %d calls on a %d-byte stream", name, call, total)
		}
	}
	if fr.n != int64(total) {
		t.Fatalf("%s: BytesRead = %d at io.EOF, stream is %d bytes", name, fr.n, total)
	}
	return frames
}

// diffAllSources runs one stream through every kind of source.
func diffAllSources(t *testing.T, name string, stream []byte, max int, seed uint64) int {
	t.Helper()
	frames := diffReaders(t, name+"/whole", bytes.NewReader(stream), bytes.NewReader(stream), max, len(stream))
	diffReaders(t, name+"/1byte", iotest.OneByteReader(bytes.NewReader(stream)), iotest.OneByteReader(bytes.NewReader(stream)), max, len(stream))
	// DataErrReader returns the final bytes together with io.EOF: the
	// (n > 0, err) Read that a buffered reader must not lose.
	diffReaders(t, name+"/dataerr", iotest.DataErrReader(bytes.NewReader(stream)), iotest.DataErrReader(bytes.NewReader(stream)), max, len(stream))
	for _, maxChunk := range []int{3, 64, 5000} {
		diffReaders(t, fmt.Sprintf("%s/chunks<=%d", name, maxChunk),
			&randChunkReader{data: stream, rng: sim.NewRNG(seed), maxChunk: maxChunk},
			&randChunkReader{data: stream, rng: sim.NewRNG(seed + 1), maxChunk: maxChunk},
			max, len(stream))
	}
	return frames
}

// TestFrameReaderMatchesReference holds the buffered reader to the
// reference on seeded streams of mixed frame sizes.
func TestFrameReaderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		var stream []byte
		want := 0
		for len(stream) < 96<<10 {
			n := 1 + rng.Intn(64)
			switch rng.Intn(20) {
			case 0:
				n = frameBufSize - 8 + rng.Intn(16) // straddles the initial window
			case 1:
				n = 1 + rng.Intn(3*frameBufSize)
			}
			stream = appendRawFrame(stream, n, rng)
			want++
		}
		if got := diffAllSources(t, fmt.Sprintf("seed%d", seed), stream, 0, seed); got != want {
			t.Fatalf("seed %d: %d frames delivered, stream holds %d", seed, got, want)
		}
	}
}

// A maximum-size frame grows the window to its cap; the small frames
// behind it must come out of the grown window unharmed.
func TestFrameReaderMaxFrameThenSmall(t *testing.T) {
	rng := sim.NewRNG(7)
	stream := appendRawFrame(nil, 40, rng)
	stream = appendRawFrame(stream, MaxFrame, rng)
	for i := 0; i < 40; i++ {
		stream = appendRawFrame(stream, 1+rng.Intn(48), rng)
	}
	if got := diffAllSources(t, "max", stream, 0, 7); got != 42 {
		t.Fatalf("%d frames delivered, want 42", got)
	}
	// One byte over the cap is refused, and the reader stays in step
	// with the reference on the bytes that follow.
	stream = appendRawFrame(stream[:0], 10, rng)
	stream = binary.BigEndian.AppendUint32(stream, MaxFrame+1)
	stream = appendRawFrame(stream, 10, rng)
	diffAllSources(t, "over", stream, 0, 8)
	// A small cap: the window never needs to grow, the cap still holds.
	stream = appendRawFrame(stream[:0], 100, rng)
	stream = appendRawFrame(stream, 101, rng)
	diffAllSources(t, "cap100", stream, 100, 9)
}

// Frames arriving 16 to a chunk — a pipelined peer at depth 16 — cost
// one Read per chunk, and agree with the reference.
func TestFrameReaderSixteenPerChunk(t *testing.T) {
	rng := sim.NewRNG(3)
	const perChunk, chunks = 16, 50
	var stream []byte
	var split [][]byte
	for c := 0; c < chunks; c++ {
		start := len(stream)
		for i := 0; i < perChunk; i++ {
			stream = appendRawFrame(stream, 20+rng.Intn(20), rng)
		}
		split = append(split, stream[start:len(stream):len(stream)])
	}
	src := &boundedChunkReader{chunks: append([][]byte(nil), split...)}
	got := diffReaders(t, "16/chunk", &boundedChunkReader{chunks: split}, src, 0, len(stream))
	if got != perChunk*chunks {
		t.Fatalf("%d frames delivered, want %d", got, perChunk*chunks)
	}
	if src.reads != chunks {
		t.Fatalf("%d reads for %d chunks of %d frames, want one per chunk", src.reads, chunks, perChunk)
	}
}

// A stream cut at every byte offset: the clean boundaries report
// io.EOF, every other cut io.ErrUnexpectedEOF, and BytesRead is the
// cut offset exactly.
func TestFrameReaderCutEverywhere(t *testing.T) {
	rng := sim.NewRNG(5)
	var stream []byte
	for _, n := range []int{1, 30, 2, frameBufSize + 100, 45, 17} {
		stream = appendRawFrame(stream, n, rng)
	}
	for cut := 0; cut <= len(stream); cut++ {
		name := fmt.Sprintf("cut%d", cut)
		diffReaders(t, name, bytes.NewReader(stream[:cut]), bytes.NewReader(stream[:cut]), 0, cut)
		diffReaders(t, name+"/chunks",
			&randChunkReader{data: stream[:cut], rng: sim.NewRNG(uint64(cut)), maxChunk: 40},
			&randChunkReader{data: stream[:cut], rng: sim.NewRNG(uint64(cut) + 1), maxChunk: 40},
			0, cut)
	}
	short := stream[:200]
	for cut := 0; cut <= len(short); cut++ {
		diffReaders(t, fmt.Sprintf("cut%d/1byte", cut),
			iotest.OneByteReader(bytes.NewReader(short[:cut])), iotest.OneByteReader(bytes.NewReader(short[:cut])), 0, cut)
	}
}

// FuzzFrameReaderChunks: any byte stream, chopped up by any seed, reads
// the same through the buffered window as through the reference.
func FuzzFrameReaderChunks(f *testing.F) {
	rng := sim.NewRNG(1)
	var stream []byte
	for i := 0; i < 20; i++ {
		stream = appendRawFrame(stream, 1+rng.Intn(60), rng)
	}
	f.Add(stream, uint64(1))
	f.Add(stream[:len(stream)-3], uint64(2))
	f.Add(stream, uint64(96)) // chunks of up to 97 bytes: whole frames buffered behind the one returned
	f.Add(appendRawFrame(appendRawFrame(nil, frameBufSize+1, rng), 9, rng), uint64(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 7}, uint64(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		maxChunk := 1 + int(seed%97)
		diffReaders(t, "fuzz",
			&randChunkReader{data: data, rng: sim.NewRNG(seed), maxChunk: maxChunk},
			&randChunkReader{data: data, rng: sim.NewRNG(seed ^ 0x5bd1e995), maxChunk: maxChunk},
			0, len(data))
		checkBufferedFrameNoRead(t, &randChunkReader{data: data, rng: sim.NewRNG(seed), maxChunk: maxChunk})
	})
}

// countingReader counts the Read calls made on r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// checkBufferedFrameNoRead walks the stream in r and checks Buffered
// against the window: whenever it says a whole frame is there, the next
// Next returns that frame without a Read.
func checkBufferedFrameNoRead(t *testing.T, r io.Reader) {
	t.Helper()
	cr := &countingReader{r: r}
	fr := NewFrameReader(cr, 0)
	for {
		whole := false
		if n := fr.Buffered(); n >= 4 {
			size := binary.BigEndian.Uint32(fr.buf[fr.head:])
			whole = size > 0 && int64(size) <= int64(fr.max) && int64(n) >= 4+int64(size)
		}
		before := cr.reads
		_, err := fr.Next()
		if whole && (err != nil || cr.reads != before) {
			t.Fatalf("a whole frame was buffered, yet Next made %d Reads (err %v)", cr.reads-before, err)
		}
		if err != nil {
			return
		}
	}
}
