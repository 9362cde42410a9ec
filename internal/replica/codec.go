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
// with three payload kinds, chosen per page by encoded size:
//
//	kindFull    the whole page, verbatim. The only kind for pages
//	            captured without a pre-image (first capture, fresh
//	            context after recovery/promotion, pre-image budget
//	            eviction) — the full-page fallback.
//	kindExtents [2B count] then per extent [2B off][2B len][len bytes
//	            of new content]. Literal bytes: patching needs no base,
//	            so extents are idempotent under retransmission.
//	kindXorRLE  [8B pre-image hash][8B new-content hash] then a
//	            run-length stream over (new XOR pre-image): alternating
//	            uvarint zero-run and literal-run lengths, each literal
//	            run followed by its XOR bytes, until the page is
//	            covered. Patching XORs into the follower's page, which
//	            therefore MUST be byte-identical to the encoder's
//	            pre-image: both hashes ride in the frame and the
//	            follower validates the chain before writing anything. A
//	            mismatch rejects the delta (gap), which forces full-page
//	            replay or a snapshot resync — never a silently corrupt
//	            pre-image chain.
//
// An encoded delta is framed once, at ShipCommit time, and the encoded
// bytes are cached on the Delta for its whole pipeline life, so
// retransmissions and batch assembly always account the same wire size
// (MaxBatchBytes bounds encoded bytes and can never be under-counted
// by a recomputation after the pre-image buffers are released).
const (
	frameHeaderBytes = 12

	kindFull    = 0
	kindExtents = 1
	kindXorRLE  = 2
)

// encPool recycles encoded-delta buffers.
var encPool = pool.NewSlicePool[byte]()

// EncPoolStats snapshots the encoded-delta buffer pool (leak checks).
func EncPoolStats() pool.Stats { return encPool.Stats() }

// fnv64 is FNV-1a over b.
//
//memsnap:hotpath
func fnv64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * prime
	}
	return h
}

// nextDiff returns the first offset >= i at which cur differs from
// prev, or len(cur) when there is none, comparing bytes only inside
// ext[k:] — every byte outside the page's extents is equal by
// construction (core.DiffExtents covers every modified byte), so the
// zero runs between extents are arithmetic. k is the caller's cursor
// into ext: extents before it end at or before i.
//
//memsnap:hotpath
func nextDiff(prev, cur []byte, ext []core.Extent, k, i int) (z, kOut int) {
	for ; k < len(ext); k++ {
		lo, hi := int(ext[k].Off), int(ext[k].Off)+int(ext[k].Len)
		if lo < i {
			lo = i
		}
		for ; lo < hi; lo++ {
			if prev[lo] != cur[lo] {
				return lo, k
			}
		}
	}
	return len(cur), k
}

// xorRLESize returns the payload size of a kindXorRLE encoding of cur
// against prev without materializing it. ext must be the page's
// DiffExtents result; only bytes inside it are read.
//
//memsnap:hotpath
func xorRLESize(prev, cur []byte, ext []core.Extent) int {
	size := 16 // base + new hash
	i, k, n := 0, 0, len(cur)
	for i < n {
		var z int
		z, k = nextDiff(prev, cur, ext, k, i)
		size += uvarintLen(uint64(z - i))
		i = z
		if i >= n {
			break
		}
		// A literal run ends at the first equal byte, which lies no
		// further than the end of the extent it started in.
		l := i
		for l < n && prev[l] != cur[l] {
			l++
		}
		size += uvarintLen(uint64(l-i)) + (l - i)
		i = l
	}
	return size
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendXorRLE appends the kindXorRLE payload of cur vs prev: the two
// page hashes, then maximal alternating zero and literal runs, with no
// trailing zero run after a literal run that ends the page. ext is the
// page's DiffExtents result (see nextDiff).
//
//memsnap:hotpath
func appendXorRLE(dst, prev, cur []byte, ext []core.Extent) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, fnv64(prev))
	dst = binary.LittleEndian.AppendUint64(dst, fnv64(cur))
	i, k, n := 0, 0, len(cur)
	for i < n {
		var z int
		z, k = nextDiff(prev, cur, ext, k, i)
		dst = binary.AppendUvarint(dst, uint64(z-i))
		i = z
		if i >= n {
			break
		}
		l := i
		for l < n && prev[l] != cur[l] {
			l++
		}
		dst = binary.AppendUvarint(dst, uint64(l-i))
		for j := i; j < l; j++ {
			dst = append(dst, prev[j]^cur[j])
		}
		i = l
	}
	return dst
}

// extentsSize returns the payload size of a kindExtents encoding.
func extentsSize(ext []core.Extent) int {
	size := 2
	for _, e := range ext {
		size += 4 + int(e.Len)
	}
	return size
}

// appendFrameHeader appends one frame header.
//
//memsnap:hotpath
func appendFrameHeader(dst []byte, index int64, kind byte, payload int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(index))
	dst = append(dst, kind, byte(payload), byte(payload>>8), byte(payload>>16))
	return dst
}

// appendPageFrame appends the smallest frame encoding pg. forceFull
// disables sub-page encodings (Config.FullPages, snapshot-grade
// transfers).
//
//memsnap:hotpath
func appendPageFrame(dst []byte, pg *core.CommittedPage, forceFull bool) (out []byte, kind byte, extents int) {
	full := len(pg.Data)
	kind = kindFull
	best := full
	if !forceFull && pg.Prev != nil && pg.Extents != nil {
		if s := extentsSize(pg.Extents); s < best {
			kind, best = kindExtents, s
		}
		if s := xorRLESize(pg.Prev, pg.Data, pg.Extents); s < best {
			kind, best = kindXorRLE, s
		}
	}
	dst = appendFrameHeader(dst, pg.Index, kind, best)
	switch kind {
	case kindFull:
		dst = append(dst, pg.Data...)
	case kindExtents:
		dst = append(dst, byte(len(pg.Extents)), byte(len(pg.Extents)>>8))
		for _, e := range pg.Extents {
			dst = append(dst, byte(e.Off), byte(e.Off>>8), byte(e.Len), byte(e.Len>>8))
			dst = append(dst, pg.Data[e.Off:int(e.Off)+int(e.Len)]...)
		}
		extents = len(pg.Extents)
	case kindXorRLE:
		dst = appendXorRLE(dst, pg.Prev, pg.Data, pg.Extents)
	}
	return dst, kind, extents
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
// delta; WireSize switches to the encoded size. The pre-image buffers
// and extent lists are consumed — released back to their pools — so
// the retained-window copy of the delta holds only Data plus the
// encoding, and the encoding can never be recomputed (larger) after
// eviction. forceFull ships verbatim pages (the diffing-off baseline).
//
//memsnap:hotpath
//memsnap:owns
func (d *Delta) encode(costs *sim.CostModel, forceFull bool) encodeResult {
	if d.enc != nil || len(d.Pages) == 0 {
		return encodeResult{}
	}
	capHint := 0
	scanned := 0
	for i := range d.Pages {
		capHint += frameHeaderBytes + len(d.Pages[i].Data)
		if d.Pages[i].Prev != nil {
			scanned += len(d.Pages[i].Data)
		}
	}
	enc := encPool.Get(capHint)
	var extents int
	for i := range d.Pages {
		pg := &d.Pages[i]
		var nExt int
		enc, _, nExt = appendPageFrame(enc, pg, forceFull)
		extents += nExt
		if d.pooled {
			pg.ReleasePre()
		} else {
			pg.Prev, pg.Extents = nil, nil
		}
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
//
//memsnap:hotpath
func decodeFrame(enc []byte) (f frame, rest []byte, err error) {
	if len(enc) < frameHeaderBytes {
		//lint:allow hotalloc malformed-frame error path
		return frame{}, nil, fmt.Errorf("replica: truncated frame header (%d bytes)", len(enc))
	}
	f.index = int64(binary.LittleEndian.Uint64(enc))
	f.kind = enc[8]
	plen := int(enc[9]) | int(enc[10])<<8 | int(enc[11])<<16
	if f.kind > kindXorRLE {
		//lint:allow hotalloc malformed-frame error path
		return frame{}, nil, fmt.Errorf("replica: unknown frame kind %d", f.kind)
	}
	if len(enc) < frameHeaderBytes+plen {
		//lint:allow hotalloc malformed-frame error path
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
// BEFORE any byte lands in the region, so patchFrame can never fail
// midway through an apply and leave a torn page.
//
//memsnap:hotpath
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
	case kindXorRLE:
		if len(f.payload) < 16 {
			return errMalformedFrame
		}
		p := f.payload[16:]
		pos := 0
		for len(p) > 0 || pos < pageLen {
			z, n := binary.Uvarint(p)
			if n <= 0 || z > uint64(pageLen-pos) {
				return errMalformedFrame
			}
			p = p[n:]
			pos += int(z)
			if pos == pageLen {
				break
			}
			l, n := binary.Uvarint(p)
			if n <= 0 {
				return errMalformedFrame
			}
			p = p[n:]
			if l > uint64(len(p)) || l > uint64(pageLen-pos) {
				return errMalformedFrame
			}
			p = p[l:]
			pos += int(l)
		}
		if len(p) != 0 {
			return errMalformedFrame
		}
		return nil
	}
	return errMalformedFrame
}

// xorHashes reads the base/new pre-image hashes of a kindXorRLE frame.
func xorHashes(payload []byte) (base, next uint64, ok bool) {
	if len(payload) < 16 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:]), true
}

// patchFrame applies one decoded frame onto the live page bytes. page
// must be the frame's whole page (len PageSize for full frames). It
// returns the number of bytes written (the memcpy cost the caller
// charges) and an error on malformed payloads — the caller must have
// validated XOR base hashes beforehand; a malformed payload surfacing
// here means the region may hold a partial patch and the apply must be
// rejected without persisting.
//
//memsnap:hotpath
func patchFrame(page []byte, f frame) (int, error) {
	switch f.kind {
	case kindFull:
		if len(f.payload) != len(page) {
			//lint:allow hotalloc malformed-frame error path
			return 0, fmt.Errorf("replica: full frame size %d, page %d", len(f.payload), len(page))
		}
		copy(page, f.payload)
		return len(page), nil
	case kindExtents:
		if len(f.payload) < 2 {
			//lint:allow hotalloc malformed-frame error path
			return 0, fmt.Errorf("replica: truncated extent count")
		}
		count := int(f.payload[0]) | int(f.payload[1])<<8
		p := f.payload[2:]
		written := 0
		for i := 0; i < count; i++ {
			if len(p) < 4 {
				//lint:allow hotalloc malformed-frame error path
				return written, fmt.Errorf("replica: truncated extent header")
			}
			off := int(p[0]) | int(p[1])<<8
			length := int(p[2]) | int(p[3])<<8
			p = p[4:]
			if len(p) < length || off+length > len(page) {
				//lint:allow hotalloc malformed-frame error path
				return written, fmt.Errorf("replica: extent [%d,%d) outside page", off, off+length)
			}
			copy(page[off:off+length], p[:length])
			p = p[length:]
			written += length
		}
		if len(p) != 0 {
			//lint:allow hotalloc malformed-frame error path
			return written, fmt.Errorf("replica: %d trailing bytes after extents", len(p))
		}
		return written, nil
	case kindXorRLE:
		if len(f.payload) < 16 {
			//lint:allow hotalloc malformed-frame error path
			return 0, fmt.Errorf("replica: truncated xor-rle hashes")
		}
		p := f.payload[16:] // hashes validated by the caller
		pos, written := 0, 0
		for len(p) > 0 || pos < len(page) {
			z, n := binary.Uvarint(p)
			if n <= 0 || z > uint64(len(page)-pos) {
				//lint:allow hotalloc malformed-frame error path
				return written, fmt.Errorf("replica: bad zero run")
			}
			p = p[n:]
			pos += int(z)
			if pos == len(page) {
				break
			}
			l, n := binary.Uvarint(p)
			if n <= 0 {
				//lint:allow hotalloc malformed-frame error path
				return written, fmt.Errorf("replica: bad literal-run varint")
			}
			p = p[n:]
			if l > uint64(len(p)) || l > uint64(len(page)-pos) {
				//lint:allow hotalloc malformed-frame error path
				return written, fmt.Errorf("replica: literal run past page end")
			}
			for j := 0; j < int(l); j++ {
				page[pos+j] ^= p[j]
			}
			p = p[l:]
			pos += int(l)
			written += int(l)
		}
		if len(p) != 0 {
			//lint:allow hotalloc malformed-frame error path
			return written, fmt.Errorf("replica: %d trailing bytes after RLE stream", len(p))
		}
		return written, nil
	}
	//lint:allow hotalloc malformed-frame error path
	return 0, fmt.Errorf("replica: unknown frame kind %d", f.kind)
}
