package replica

// The whole-page byte-scanning XOR-RLE sizer and encoder the
// extent-driven ones in codec.go replaced, kept as the reference the
// differential tests hold the new ones to (the internal/disk and
// internal/proto reference_test.go pattern): same maximal zero and
// literal runs, same trailing-run rule, byte for byte.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// refXorRLESize sizes the kindXorRLE payload by comparing every byte
// of the page.
func refXorRLESize(prev, cur []byte) int {
	size := 16
	i, n := 0, len(cur)
	for i < n {
		z := i
		for z < n && prev[z] == cur[z] {
			z++
		}
		size += uvarintLen(uint64(z - i))
		i = z
		if i >= n {
			break
		}
		l := i
		for l < n && prev[l] != cur[l] {
			l++
		}
		size += uvarintLen(uint64(l-i)) + (l - i)
		i = l
	}
	return size
}

// refAppendXorRLE appends the kindXorRLE payload by comparing every
// byte of the page.
func refAppendXorRLE(dst, prev, cur []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, fnv64(prev))
	dst = binary.LittleEndian.AppendUint64(dst, fnv64(cur))
	i, n := 0, len(cur)
	for i < n {
		z := i
		for z < n && prev[z] == cur[z] {
			z++
		}
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

// checkXorRLEAgainstReference diffs prev against cur and holds the
// extent-driven sizer and encoder to the reference: identical payload,
// size equal to the payload length, and a patch that reproduces cur.
func checkXorRLEAgainstReference(t testing.TB, prev, cur []byte) {
	t.Helper()
	ext := core.DiffExtents(prev, cur, make([]core.Extent, 0, 8))
	want := refAppendXorRLE(nil, prev, cur)
	got := appendXorRLE(nil, prev, cur, ext)
	if !bytes.Equal(got, want) {
		t.Fatalf("payload differs from the reference: %d bytes vs %d (extents %v)", len(got), len(want), ext)
	}
	if s := xorRLESize(prev, cur, ext); s != len(got) {
		t.Fatalf("xorRLESize = %d, payload is %d bytes", s, len(got))
	}
	if s := refXorRLESize(prev, cur); s != len(want) {
		t.Fatalf("reference sizer = %d, reference payload is %d bytes", s, len(want))
	}
	fr := frame{index: 1, kind: kindXorRLE, payload: got}
	if err := checkFrame(len(cur), fr); err != nil {
		t.Fatalf("checkFrame on encoder output: %v", err)
	}
	page := append([]byte(nil), prev...)
	if _, err := patchFrame(page, fr); err != nil {
		t.Fatalf("patchFrame: %v", err)
	}
	if !bytes.Equal(page, cur) {
		t.Fatal("patchFrame(prev, frame) does not reproduce cur")
	}
}

func TestXorRLEFromExtentsMatchesReference(t *testing.T) {
	flip := func(offs ...int) func(cur []byte) {
		return func(cur []byte) {
			for _, o := range offs {
				cur[o] ^= 0xFF
			}
		}
	}
	span := func(from, to int) func(cur []byte) {
		return func(cur []byte) {
			for i := from; i < to; i++ {
				cur[i] ^= 0x5A
			}
		}
	}
	const last = core.PageSize - 1
	cases := []struct {
		name   string
		mutate func(cur []byte)
	}{
		{"identical", func([]byte) {}},
		{"first_byte", flip(0)},
		{"last_byte", flip(last)},
		{"first_and_last", flip(0, last)},
		{"run_to_page_end", span(core.PageSize-40, core.PageSize)},
		{"run_from_page_start", span(0, 40)},
		{"zero_run_to_page_end", span(100, 140)},
		// diffMergeGap is 16: a gap of 15 equal bytes merges into one
		// extent (equal bytes inside it), 16 and 17 split.
		{"gap_15", flip(200, 216)},
		{"gap_16", flip(200, 217)},
		{"gap_17", flip(200, 218)},
		{"gap_15_at_page_end", flip(last-16, last)},
		{"fragmented_collapse", func(cur []byte) {
			// One byte every 24: more than maxDiffExtents (96) runs, so
			// DiffExtents collapses to a single spanning extent whose
			// inside is mostly equal bytes.
			for i := 5; i < len(cur); i += 24 {
				cur[i] ^= 0x01
			}
		}},
		{"exactly_96_fragments", func(cur []byte) {
			for i := 0; i < 96; i++ {
				cur[i*40] ^= 0x01
			}
		}},
		{"97_fragments", func(cur []byte) {
			for i := 0; i < 97; i++ {
				cur[i*40] ^= 0x01
			}
		}},
		{"every_byte", span(0, core.PageSize)},
		{"every_other_byte", func(cur []byte) {
			for i := 0; i < len(cur); i += 2 {
				cur[i] ^= 0x80
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := basePage()
			cur := append([]byte(nil), prev...)
			tc.mutate(cur)
			checkXorRLEAgainstReference(t, prev, cur)
		})
	}

	// Seeded random page pairs: a few runs of random length at random
	// offsets, some of them rewriting bytes to their old value.
	rng := sim.NewRNG(0xC0DEC)
	for n := 0; n < 300; n++ {
		prev := basePage()
		cur := append([]byte(nil), prev...)
		for r := rng.Intn(12); r >= 0; r-- {
			off := rng.Intn(core.PageSize)
			for j, l := 0, 1+rng.Intn(64); j < l && off+j < core.PageSize; j++ {
				if rng.Intn(4) > 0 {
					cur[off+j] = byte(rng.Intn(256))
				}
			}
		}
		checkXorRLEAgainstReference(t, prev, cur)
	}
}

// TestEncoderChoiceMatchesReference: the smallest-of-three choice made
// from the extent-driven size equals the one the byte-scanning size
// makes, and an XOR frame's bytes equal the reference payload — the
// wire format did not move.
func TestEncoderChoiceMatchesReference(t *testing.T) {
	rng := sim.NewRNG(0xF4A3E)
	kinds := map[byte]int{}
	for n := 0; n < 200; n++ {
		prev := basePage()
		cur := append([]byte(nil), prev...)
		// A handful of scattered bytes favours extents, hundreds favour
		// XOR-RLE; the sweep crosses the boundary.
		count := 1 + rng.Intn(8)
		if n%2 == 1 {
			count = 1 + rng.Intn(400)
		}
		for i := 0; i < count; i++ {
			cur[rng.Intn(len(cur))] ^= byte(1 + rng.Intn(255))
		}
		ext := core.DiffExtents(prev, cur, make([]core.Extent, 0, 8))
		wantKind, best := byte(kindFull), len(cur)
		if s := extentsSize(ext); s < best {
			wantKind, best = kindExtents, s
		}
		if s := refXorRLESize(prev, cur); s < best {
			wantKind, best = kindXorRLE, s
		}
		pg := core.CommittedPage{Index: 3, Data: cur, Prev: prev, Extents: ext}
		out, kind, _ := appendPageFrame(nil, &pg)
		if kind != wantKind || len(out) != frameHeaderBytes+best {
			t.Fatalf("%d mutations: kind %d size %d, reference chooses kind %d size %d", count, kind, len(out)-frameHeaderBytes, wantKind, best)
		}
		if kind == kindXorRLE && !bytes.Equal(out[frameHeaderBytes:], refAppendXorRLE(nil, prev, cur)) {
			t.Fatalf("%d mutations: XOR frame bytes differ from the reference", count)
		}
		kinds[kind]++
	}
	if kinds[kindXorRLE] == 0 || kinds[kindExtents] == 0 {
		t.Fatalf("the sweep exercised kinds %v; want both extents and XOR frames", kinds)
	}
}
