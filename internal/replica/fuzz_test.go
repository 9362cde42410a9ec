package replica

// FuzzDeltaCodec drives the full sub-page codec loop from a fuzzed
// mutation script: mutate a deterministic base page, diff, encode,
// decode, validate, patch — the patched page must equal the directly written
// one, byte for byte, and the frame hashes must chain correctly. The
// raw input is then replayed through the decoder as an adversarial
// frame stream, which must reject malformed frames with errors, never
// panic or write out of page bounds.

import (
	"bytes"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

func FuzzDeltaCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x00, 0xAA, 0x04})
	f.Add([]byte{0x00, 0x00, 0x01, 0x3F, 0xFF, 0x0F, 0x02, 0x3F})
	f.Add([]byte{0xFF, 0x0F, 0x55, 0x3F})
	// A dense scatter: one mutation op per 24-byte stride, exercising
	// the extent-collapse and XOR/RLE paths.
	scatter := make([]byte, 0, 4*172)
	for off := 0; off < core.PageSize; off += 24 {
		scatter = append(scatter, byte(off), byte(off>>8), byte(off), 0x01)
	}
	f.Add(scatter)

	f.Fuzz(func(t *testing.T, script []byte) {
		base := basePage()
		cur := append([]byte(nil), base...)
		for i := 0; i+4 <= len(script); i += 4 {
			off := (int(script[i]) | int(script[i+1])<<8) % core.PageSize
			val := script[i+2]
			run := int(script[i+3])%64 + 1
			for j := 0; j < run && off+j < core.PageSize; j++ {
				cur[off+j] = val + byte(j)
			}
		}

		d := codecDelta(1, 5, append([]byte(nil), base...), cur)
		res := d.encode(sim.DefaultCosts())
		if d.enc == nil {
			t.Fatal("encode cached nothing")
		}
		if res.wire != len(d.enc) || d.WireSize() != msgHeaderBytes+len(d.enc) {
			t.Fatalf("size accounting: wire=%d len(enc)=%d WireSize=%d", res.wire, len(d.enc), d.WireSize())
		}
		if len(d.enc) > frameHeaderBytes+core.PageSize {
			t.Fatalf("encoded frame (%d bytes) larger than a full-page frame", len(d.enc))
		}

		got := append([]byte(nil), base...)
		frames := 0
		enc := d.enc
		for len(enc) > 0 {
			fr, rest, err := decodeFrame(enc)
			if err != nil {
				t.Fatalf("decodeFrame on encoder output: %v", err)
			}
			if err := checkFrame(core.PageSize, fr); err != nil {
				t.Fatalf("checkFrame on encoder output: %v", err)
			}
			if fr.index != 5 {
				t.Fatalf("frame index = %d, want 5", fr.index)
			}
			if fr.kind == kindXorRLE {
				bh, nh, ok := xorHashes(fr.payload)
				if !ok || bh != fnv64(base) || nh != fnv64(cur) {
					t.Fatal("xor-rle frame hashes do not chain base -> new")
				}
			}
			if _, err := patchFrame(got, fr); err != nil {
				t.Fatalf("patchFrame on validated frame: %v", err)
			}
			enc = rest
			frames++
		}
		if frames != 1 {
			t.Fatalf("one page encoded into %d frames", frames)
		}
		if !bytes.Equal(got, cur) {
			t.Fatal("decode+patch does not equal the directly written page")
		}

		// Adversarial pass: the raw fuzz input as a frame stream. Every
		// outcome is acceptable except a panic or an out-of-bounds write.
		junk := make([]byte, core.PageSize)
		enc = script
		for len(enc) > 0 {
			fr, rest, err := decodeFrame(enc)
			if err != nil {
				break
			}
			structOK := checkFrame(core.PageSize, fr) == nil
			if _, err := patchFrame(junk, fr); (err == nil) != structOK {
				t.Fatalf("checkFrame/patchFrame disagree (structOK=%v, patch err=%v)", structOK, err)
			}
			enc = rest
		}
	})
}

// FuzzXorRLEFromExtents holds the extent-driven XOR-RLE sizer and
// encoder to the byte-scanning reference (reference_test.go) on fuzzed
// page pairs: each input is laid over a zero page, the pair is diffed
// with core.DiffExtents, and both encoders must emit the same bytes.
func FuzzXorRLEFromExtents(f *testing.F) {
	base := basePage()
	edit := func(offs ...int) []byte {
		cur := append([]byte(nil), base...)
		for _, o := range offs {
			cur[o] ^= 0xA5
		}
		return cur
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 4})
	f.Add(base, base)
	f.Add(base, edit(0))
	f.Add(base, edit(core.PageSize-1))
	f.Add(base, edit(200, 216, 233, 251))
	f.Add(base[:64], base[32:96])

	f.Fuzz(func(t *testing.T, a, b []byte) {
		prev := make([]byte, core.PageSize)
		cur := make([]byte, core.PageSize)
		copy(prev, a)
		copy(cur, b)
		checkXorRLEAgainstReference(t, prev, cur)
	})
}
