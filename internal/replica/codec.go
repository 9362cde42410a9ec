package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/pool"
	"memsnap/internal/sim"
)

// Wire format of an encoded delta: a sequence of per-page frames, each
//
//	[8B page index LE][1B kind][3B payload length LE][payload]
//
// with two payload kinds, chosen per page by encoded size:
//
//	kindFull    the whole page, verbatim. The only kind for pages
//	            captured without a pre-image (first capture, fresh
//	            context after recovery/promotion, pre-image budget
//	            eviction) — the full-page fallback.
//	kindExtents [2B count] then per extent [2B off][2B len][len bytes
//	            of new content]. Literal bytes: patching needs no base,
//	            so extents are idempotent under retransmission and a
//	            follower that resumes at its manifest position after a
//	            torn apply converges by re-applying them.
//
// Any other kind byte is malformed and rejects the delta.
//
// An encoded delta is framed once, at ShipCommit time, and the encoded
// bytes are cached on the Delta for its whole pipeline life, so
// retransmissions and batch assembly always account the same wire size
// (maxBatchBytes bounds encoded bytes and can never be under-counted
// by a recomputation after the extent lists are released).
const (
	frameHeaderBytes = 12

	kindFull    = 0
	kindExtents = 1
)

// encPool recycles encoded-delta buffers.
var encPool = pool.NewSlicePool[byte]()

// EncPoolStats snapshots the encoded-delta buffer pool (leak checks).
func EncPoolStats() pool.Stats { return encPool.Stats() }

// extentsSize returns the payload size of a kindExtents encoding.
func extentsSize(ext []core.Extent) int {
	size := 2
	for _, e := range ext {
		size += 4 + int(e.Len)
	}
	return size
}

// appendFrameHeader appends one frame header.
func appendFrameHeader(dst []byte, index int64, kind byte, payload int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(index))
	dst = append(dst, kind, byte(payload), byte(payload>>8), byte(payload>>16))
	return dst
}

// appendPageFrame appends the smaller frame encoding pg: its extents
// when it was diffed at capture (Extents non-nil) and they are smaller
// than the page, the whole page otherwise.
func appendPageFrame(dst []byte, pg *core.CommittedPage) (out []byte, extents int) {
	size := extentsSize(pg.Extents)
	if pg.Extents == nil || size >= len(pg.Data) {
		dst = appendFrameHeader(dst, pg.Index, kindFull, len(pg.Data))
		return append(dst, pg.Data...), 0
	}
	dst = appendFrameHeader(dst, pg.Index, kindExtents, size)
	dst = append(dst, byte(len(pg.Extents)), byte(len(pg.Extents)>>8))
	for _, e := range pg.Extents {
		dst = append(dst, byte(e.Off), byte(e.Off>>8), byte(e.Len), byte(e.Len>>8))
		dst = append(dst, pg.Data[e.Off:int(e.Off)+int(e.Len)]...)
	}
	return dst, len(pg.Extents)
}

// encodeResult summarizes one delta's encoding for the shipper's
// counters.
type encodeResult struct {
	wire    int           // encoded payload bytes (excl. message header)
	saved   int           // full-page wire bytes minus encoded bytes
	extents int           // extents emitted across kindExtents frames
	cost    time.Duration // virtual encode time
}

// encode frames the delta's pages once and caches the encoding on the
// delta; WireSize switches to the encoded size. The extent lists are
// consumed — released back to their pool — so the retained-window copy
// of the delta holds only Data plus the encoding, and the encoding can
// never be recomputed (larger) after the lists are gone.
func (d *Delta) encode(costs *sim.CostModel) encodeResult {
	if d.enc != nil || len(d.Pages) == 0 {
		return encodeResult{}
	}
	capHint := 0
	scanned := 0
	for i := range d.Pages {
		capHint += frameHeaderBytes + len(d.Pages[i].Data)
		if d.Pages[i].Extents != nil {
			scanned += len(d.Pages[i].Data)
		}
	}
	enc := encPool.Get(capHint)
	var extents int
	for i := range d.Pages {
		pg := &d.Pages[i]
		var nExt int
		enc, nExt = appendPageFrame(enc, pg)
		extents += nExt
		if d.pooled {
			core.ReleaseExtents(pg.Extents)
		}
		pg.Extents = nil
	}
	d.enc = enc
	res := encodeResult{
		wire:    len(enc),
		saved:   pagesWireSize(len(d.Pages)) - (msgHeaderBytes + len(enc)),
		extents: extents,
	}
	if res.saved < 0 {
		res.saved = 0
	}
	// ROADMAP item 6 audits this DiffCost: the extents come from capture,
	// so encoding scans nothing.
	res.cost = costs.DiffCost(scanned) + costs.MemcpyCost(len(enc))
	return res
}

// frame is one decoded page frame; payload aliases the encoded buffer.
type frame struct {
	index   int64
	kind    byte
	payload []byte
}

// decodeFrame splits the first frame off enc.
func decodeFrame(enc []byte) (f frame, rest []byte, err error) {
	if len(enc) < frameHeaderBytes {
		return frame{}, nil, fmt.Errorf("replica: truncated frame header (%d bytes)", len(enc))
	}
	f.index = int64(binary.LittleEndian.Uint64(enc))
	f.kind = enc[8]
	plen := int(enc[9]) | int(enc[10])<<8 | int(enc[11])<<16
	if f.kind > kindExtents {
		return frame{}, nil, fmt.Errorf("replica: unknown frame kind %d", f.kind)
	}
	if len(enc) < frameHeaderBytes+plen {
		return frame{}, nil, fmt.Errorf("replica: truncated frame payload (%d of %d bytes)", len(enc)-frameHeaderBytes, plen)
	}
	f.payload = enc[frameHeaderBytes : frameHeaderBytes+plen]
	return f, enc[frameHeaderBytes+plen:], nil
}

// errMalformedFrame rejects a structurally invalid frame payload
// during the follower's pre-write validation pass.
var errMalformedFrame = errors.New("replica: malformed frame payload")

// checkFrame validates f's payload structure against a page of pageLen
// bytes without writing anything — the follower runs it on every frame
// BEFORE any byte lands in the region, so patchFrame never meets a
// malformed frame midway through an apply and leaves a torn page.
func checkFrame(pageLen int, f frame) error {
	switch f.kind {
	case kindFull:
		if len(f.payload) != pageLen {
			return errMalformedFrame
		}
		return nil
	case kindExtents:
		if len(f.payload) < 2 {
			return errMalformedFrame
		}
		count := int(f.payload[0]) | int(f.payload[1])<<8
		p := f.payload[2:]
		for i := 0; i < count; i++ {
			if len(p) < 4 {
				return errMalformedFrame
			}
			off := int(p[0]) | int(p[1])<<8
			length := int(p[2]) | int(p[3])<<8
			p = p[4:]
			if len(p) < length || off+length > pageLen {
				return errMalformedFrame
			}
			p = p[length:]
		}
		if len(p) != 0 {
			return errMalformedFrame
		}
		return nil
	}
	return errMalformedFrame
}

// patchFrame applies one frame that passed checkFrame(len(page), f)
// onto the live page bytes and returns the number of bytes written
// (the memcpy cost the caller charges).
func patchFrame(page []byte, f frame) int {
	if f.kind == kindFull {
		return copy(page, f.payload)
	}
	count := int(f.payload[0]) | int(f.payload[1])<<8
	p := f.payload[2:]
	written := 0
	for i := 0; i < count; i++ {
		off := int(p[0]) | int(p[1])<<8
		length := int(p[2]) | int(p[3])<<8
		written += copy(page[off:off+length], p[4:4+length])
		p = p[4+length:]
	}
	return written
}
