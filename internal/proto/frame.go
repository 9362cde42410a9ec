package proto

import (
	"encoding/binary"
	"io"
)

// frameBufSize is the frame reader's initial window: 4 KiB holds a
// full pipeline of typical requests or responses, so one Read serves
// many Next calls.
const frameBufSize = 4 << 10

// FrameReader reads length-prefixed frames from an io.Reader through
// one reusable window: a Read takes whatever has arrived, Next slices
// frames out of the window, and only a frame cut by the window's tail
// costs another Read. The returned payload aliases the window and is
// valid only until the following Next call. The window starts at
// frameBufSize and doubles, to at most 4+max bytes, only for a frame
// whose length prefix has passed the max check — so a hostile prefix
// cannot force an allocation: prefixes above the cap fail with
// ErrFrameTooLarge before anything grows.
type FrameReader struct {
	r   io.Reader
	buf []byte
	// buf[head:tail] holds the bytes read from r and not yet returned.
	head, tail int
	max        int
}

// NewFrameReader wraps r with a frame decoder capped at max payload
// bytes (0 or negative: MaxFrame).
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 {
		max = MaxFrame
	}
	return &FrameReader{r: r, buf: make([]byte, frameBufSize), max: max}
}

// Next returns the payload of the next frame. io.EOF is returned only
// on a clean boundary (no partial frame read); a connection cut
// mid-frame yields io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.tail-fr.head < 4 {
		if err := fr.fill(4); err != nil {
			return nil, err
		}
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.head:])
	if n == 0 || int64(n) > int64(fr.max) {
		fr.head += 4
		if n == 0 {
			return nil, ErrTruncated
		}
		return nil, ErrFrameTooLarge
	}
	size := 4 + int(n)
	if fr.tail-fr.head < size {
		if err := fr.fill(size); err != nil {
			return nil, err
		}
	}
	payload := fr.buf[fr.head+4 : fr.head+size]
	fr.head += size
	return payload, nil
}

// fill moves the partial frame at the window's tail to its front and
// reads until the window holds need bytes, growing it first if need
// (already checked against max) exceeds it. On a read error the
// partial bytes count as consumed and the window is left empty.
func (fr *FrameReader) fill(need int) error {
	fr.tail = copy(fr.buf, fr.buf[fr.head:fr.tail])
	fr.head = 0
	if need > len(fr.buf) {
		size := len(fr.buf)
		for size < need {
			size *= 2
		}
		if size-4 > fr.max {
			size = 4 + fr.max
		}
		// At most five times per connection: the window grows to the high-water frame size.
		grown := make([]byte, size)
		copy(grown, fr.buf[:fr.tail])
		fr.buf = grown
	}
	for fr.tail < need {
		m, err := fr.r.Read(fr.buf[fr.tail:])
		fr.tail += m
		if err != nil && fr.tail < need {
			if err == io.EOF && fr.tail > 0 {
				err = io.ErrUnexpectedEOF
			}
			fr.tail = 0
			return err
		}
	}
	return nil
}

// Buffered returns how many bytes the window holds that Next has not
// returned yet: 0 means the next Next must Read, and a whole frame's
// worth means it will not. A server uses it to tell a lone request from
// one with more of the pipeline already behind it.
func (fr *FrameReader) Buffered() int { return fr.tail - fr.head }
