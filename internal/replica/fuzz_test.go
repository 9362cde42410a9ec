package replica

// FuzzDeltaCodec drives the full sub-page codec loop from a fuzzed
// mutation script: mutate a deterministic base page, diff, encode,
// decode, validate, patch — the patched page must equal the directly
// written one, byte for byte. The raw input is then replayed through
// the decoder as an adversarial frame stream, which must reject
// malformed frames and unknown kinds with errors, never panic or write
// out of page bounds.

import (
	"bytes"
	"testing"

	"memsnap/internal/core"
)

func FuzzDeltaCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x00, 0xAA, 0x04})
	f.Add([]byte{0x00, 0x00, 0x01, 0x3F, 0xFF, 0x0F, 0x02, 0x3F})
	f.Add([]byte{0xFF, 0x0F, 0x55, 0x3F})
	// A dense scatter: one mutation op per 24-byte stride, exercising
	// the extent-collapse path.
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
		res := encodeOwned(t, d)
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
			patchFrame(got, fr)
			enc = rest
			frames++
		}
		if frames != 1 {
			t.Fatalf("one page encoded into %d frames", frames)
		}
		if !bytes.Equal(got, cur) {
			t.Fatal("decode+patch does not equal the directly written page")
		}

		// Adversarial pass: the raw fuzz input as a frame stream. A frame
		// of a kind other than full or extents never decodes; one that
		// decodes and passes checkFrame patches within the page. Every
		// other outcome is acceptable except a panic.
		junk := make([]byte, core.PageSize)
		enc = script
		for len(enc) > 0 {
			fr, rest, err := decodeFrame(enc)
			if err != nil {
				break
			}
			if fr.kind > kindExtents {
				t.Fatalf("frame kind %d decoded", fr.kind)
			}
			if checkFrame(core.PageSize, fr) != nil {
				break
			}
			if n := patchFrame(junk, fr); n > core.PageSize {
				t.Fatalf("patched %d bytes into one page", n)
			}
			enc = rest
		}
		if _, ok := validateEnc(script); ok && len(script) >= frameHeaderBytes && script[8] > kindExtents {
			t.Fatalf("validateEnc accepted a stream opening with frame kind %d", script[8])
		}
	})
}
