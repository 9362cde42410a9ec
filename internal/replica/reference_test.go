package replica

// The kindExtents payload written out the plain way with
// encoding/binary, kept as the reference the encoder is held to (the
// internal/disk and internal/proto reference_test.go pattern): same
// full-vs-extents choice, same bytes.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// refExtentsPayload builds the kindExtents payload of cur for ext.
func refExtentsPayload(cur []byte, ext []core.Extent) []byte {
	p := binary.LittleEndian.AppendUint16(nil, uint16(len(ext)))
	for _, e := range ext {
		p = binary.LittleEndian.AppendUint16(p, e.Off)
		p = binary.LittleEndian.AppendUint16(p, e.Len)
		p = append(p, cur[e.Off:e.Off+e.Len]...)
	}
	return p
}

// TestEncoderChoiceMatchesReference: a diffed page ships as the smaller
// of its whole bytes and the reference extents payload, byte for byte,
// and the frame patches the previous content into the new.
func TestEncoderChoiceMatchesReference(t *testing.T) {
	rng := sim.NewRNG(0xF4A3E)
	kinds := map[byte]int{}
	for n := 0; n < 200; n++ {
		prev := basePage()
		cur := append([]byte(nil), prev...)
		// A handful of scattered bytes ships as extents. Hundreds collapse
		// the extent list to one span, which ships whole once it covers
		// nearly the page: the sweep crosses the boundary.
		count := 1 + rng.Intn(8)
		if n%2 == 1 {
			count = 1 + rng.Intn(400)
		}
		for i := 0; i < count; i++ {
			cur[rng.Intn(len(cur))] ^= byte(1 + rng.Intn(255))
		}
		if n%4 == 3 {
			cur[0] ^= 0x80
			cur[len(cur)-1] ^= 0x80
		}
		pg := diffPage(3, prev, cur)
		wantKind, want := byte(kindFull), cur
		if p := refExtentsPayload(cur, pg.Extents); len(p) < len(cur) {
			wantKind, want = kindExtents, p
		}
		out, _ := appendPageFrame(nil, &pg)
		kind := frameKinds(t, out)[0]
		if kind != wantKind || !bytes.Equal(out[frameHeaderBytes:], want) {
			t.Fatalf("%d mutations: kind %d size %d, reference chooses kind %d size %d", count, kind, len(out)-frameHeaderBytes, wantKind, len(want))
		}
		if got := decodePatch(t, out, prev); !bytes.Equal(got, cur) {
			t.Fatalf("%d mutations: the frame does not patch prev into cur", count)
		}
		kinds[kind]++
	}
	if kinds[kindFull] == 0 || kinds[kindExtents] == 0 {
		t.Fatalf("the sweep exercised kinds %v; want both full and extents frames", kinds)
	}
}
