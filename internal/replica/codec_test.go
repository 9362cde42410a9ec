package replica

// White-box tests for the sub-page delta wire codec: per-kind
// round-trips, encoder kind selection, the encode-once WireSize
// invariant (a retransmission can never re-account a delta after its
// extent lists are gone), and batch byte-budget stability under retry.

import (
	"bytes"
	"testing"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/sim"
)

// basePage builds the deterministic pre-image used across codec tests.
func basePage() []byte {
	b := make([]byte, core.PageSize)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}

// diffPage builds one unpooled captured page: cur with its extent diff
// against prev, or with no diff (it ships whole) when prev is nil.
func diffPage(index int64, prev, cur []byte) core.CommittedPage {
	pg := core.CommittedPage{Index: index, Data: append([]byte(nil), cur...)}
	if prev != nil {
		pg.Extents = core.DiffExtents(prev, cur, make([]core.Extent, 0, 8))
	}
	return pg
}

// codecDelta builds an unpooled single-page delta carrying the extent
// diff of cur against prev, ready for encode.
func codecDelta(seq uint64, index int64, prev, cur []byte) *Delta {
	return &Delta{Shard: 0, Seq: seq, Pages: []core.CommittedPage{diffPage(index, prev, cur)}}
}

// encodeOwned encodes a delta the test built, which no pipeline
// reference releases, and hands the encoding back to encPool when the
// test ends: the package's pool audit counts every Get.
func encodeOwned(tb testing.TB, d *Delta) encodeResult {
	tb.Cleanup(func() {
		encPool.Put(d.enc)
		d.enc = nil
	})
	return d.encode(sim.DefaultCosts())
}

// decodePatch decodes every frame of enc onto a copy of base and
// returns the patched page, failing the test on any malformed frame.
func decodePatch(t *testing.T, enc, base []byte) []byte {
	t.Helper()
	got := append([]byte(nil), base...)
	for len(enc) > 0 {
		fr, rest, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("decodeFrame: %v", err)
		}
		if err := checkFrame(core.PageSize, fr); err != nil {
			t.Fatalf("checkFrame: %v", err)
		}
		patchFrame(got, fr)
		enc = rest
	}
	return got
}

// frameKinds decodes enc and returns the kind of every frame.
func frameKinds(t testing.TB, enc []byte) []byte {
	t.Helper()
	var kinds []byte
	for len(enc) > 0 {
		fr, rest, err := decodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, fr.kind)
		enc = rest
	}
	return kinds
}

func TestCodecRoundTripKinds(t *testing.T) {
	base := basePage()
	cases := []struct {
		name   string
		mutate func(cur []byte)
		kind   byte
	}{
		{"single_byte", func(cur []byte) { cur[100] ^= 0xFF }, kindExtents},
		{"one_run", func(cur []byte) {
			for i := 200; i < 232; i++ {
				cur[i] = 0xAB
			}
		}, kindExtents},
		{"identical_page", func(cur []byte) {}, kindExtents},
		{"whole_page", func(cur []byte) {
			for i := range cur {
				cur[i] ^= 0x5A
			}
		}, kindFull},
		{"fragmented", func(cur []byte) {
			// One byte every 24: far past maxDiffExtents runs, so the
			// extent list collapses to one span that still ends short of
			// the page.
			for i := 0; i < len(cur); i += 24 {
				cur[i] ^= 0x01
			}
		}, kindExtents},
		// Every case is also patched a second time, onto its own result:
		// frames carry literal bytes, so twice must equal once.
		{"extents_applied_twice", func(cur []byte) {
			cur[10] ^= 0x01
			for i := 2000; i < 2040; i++ {
				cur[i] = byte(i)
			}
		}, kindExtents},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := append([]byte(nil), base...)
			tc.mutate(cur)
			d := codecDelta(1, 7, append([]byte(nil), base...), cur)
			res := encodeOwned(t, d)
			if d.enc == nil {
				t.Fatal("encode cached nothing")
			}
			if res.wire != len(d.enc) {
				t.Fatalf("encodeResult.wire = %d, len(enc) = %d", res.wire, len(d.enc))
			}
			if kinds := frameKinds(t, d.enc); len(kinds) != 1 || kinds[0] != tc.kind {
				t.Fatalf("frame kinds = %v, want [%d]", kinds, tc.kind)
			}
			got := decodePatch(t, d.enc, base)
			if !bytes.Equal(got, cur) {
				t.Fatal("decode+patch does not reproduce the written page")
			}
			if !bytes.Equal(decodePatch(t, d.enc, got), cur) {
				t.Fatal("patching the frame twice differs from patching it once")
			}
			if res.cost <= 0 {
				t.Fatal("encode charged no virtual time")
			}
		})
	}
}

// TestWireSizeStableAfterPreImageRelease pins the encode-once
// invariant that fixes batch accounting under retry: once encoded, a
// delta's WireSize never changes — not after its extent lists are
// released (encode consumes them), and not on a second encode call.
// Before this invariant, a retransmission whose encoding was recomputed
// after pre-image eviction could only produce full-page frames,
// under-counting the maxBatchBytes budget its original (smaller)
// encoding had been admitted under.
func TestWireSizeStableAfterPreImageRelease(t *testing.T) {
	base := basePage()
	cur := append([]byte(nil), base...)
	cur[500] ^= 0x11
	d := codecDelta(1, 2, base, cur)
	legacy := d.WireSize()
	if legacy != pagesWireSize(1) {
		t.Fatalf("unencoded WireSize = %d, want legacy %d", legacy, pagesWireSize(1))
	}
	encodeOwned(t, d)
	ws := d.WireSize()
	if ws >= legacy {
		t.Fatalf("encoded WireSize = %d, not smaller than legacy %d", ws, legacy)
	}
	if d.Pages[0].Extents != nil {
		t.Fatal("encode did not consume the extent list")
	}
	// The extents are gone — exactly the state a retained-window delta
	// is in when a retry retransmits it.
	if again := d.WireSize(); again != ws {
		t.Fatalf("WireSize drifted after pre-image release: %d -> %d", ws, again)
	}
	if res := d.encode(sim.DefaultCosts()); res.wire != 0 {
		t.Fatalf("second encode re-ran (wire=%d), must be a no-op", res.wire)
	}
	if again := d.WireSize(); again != ws {
		t.Fatalf("WireSize drifted after re-encode attempt: %d -> %d", ws, again)
	}
}

// TestCollectBatchPacksEncodedSizes: the byte budget admits deltas by
// their encoded size, so sub-page deltas that would blow the budget as
// full pages coalesce into one message.
func TestCollectBatchPacksEncodedSizes(t *testing.T) {
	const npages = 20 // four deltas of this many full pages exceed maxBatchBytes
	if 4*pagesWireSize(npages) <= maxBatchBytes {
		t.Fatalf("four %d-page deltas fit maxBatchBytes=%d as full pages", npages, maxBatchBytes)
	}
	fol := batchFollower(t, 1)
	s := NewShipper(NewLink(LinkConfig{}), fol, 1, Config{Mode: Sync})
	ss := s.shards[0]
	base := basePage()
	var jobs []shipJob
	for seq := uint64(1); seq <= 4; seq++ {
		d := &Delta{Shard: 0, Seq: seq}
		for p := 0; p < npages; p++ {
			cur := append([]byte(nil), base...)
			cur[int(seq)*10+p] = byte(seq)
			d.Pages = append(d.Pages, diffPage(int64(1+p), base, cur))
		}
		encodeOwned(t, d)
		if d.WireSize() > npages*32 {
			t.Fatalf("seq %d: encoded WireSize = %d, expected small extent frames", seq, d.WireSize())
		}
		jobs = append(jobs, shipJob{at: 0, d: d})
	}
	for _, j := range jobs[1:] {
		enqueue(s, ss, j.d, 0)
	}
	jobs[0].d.retain()
	s.jobs.Add(1)
	batch := s.collectBatch(ss, jobs[0])
	if len(batch) != 4 {
		t.Fatalf("coalesced %d encoded deltas, want 4 (sum of encoded sizes fits the byte budget)", len(batch))
	}
	for range batch {
		s.jobs.Done()
	}
}

// TestBatchBytesStableUnderRetry: a retransmitted batch puts exactly
// the same bytes on the link as the first transmission — the cached
// encodings cannot be re-derived (larger) after extent release, so
// the maxBatchBytes bound holds for every retry of an admitted batch.
func TestBatchBytesStableUnderRetry(t *testing.T) {
	fol := batchFollower(t, 1)
	link := NewLink(LinkConfig{})
	s := NewShipper(link, fol, 1, Config{Mode: Sync})
	ss := s.shards[0]
	base := basePage()
	var run []*Delta
	wire := 0
	for seq := uint64(1); seq <= 3; seq++ {
		cur := append([]byte(nil), base...)
		cur[int(seq)*50] = 0xC0 | byte(seq)
		d := codecDelta(seq, 1, append([]byte(nil), base...), cur)
		encodeOwned(t, d)
		wire += d.WireSize()
		run = append(run, d)
	}
	if kinds := frameKinds(t, run[0].enc); kinds[0] != kindExtents {
		t.Fatalf("want extent frames for this test, got kind %d", kinds[0])
	}
	t1, _ := s.ship(ss, 0, run, nil, true)
	sent1 := s.Stats()[0].WireBytes
	if want := int64(wire); sent1 != want {
		t.Fatalf("first transmission put %d bytes on the link, want %d", sent1, want)
	}
	// Retransmit (the lost-ack case): the follower re-acks the whole
	// run as a duplicate, and the message is byte-for-byte the same
	// size even though every extent list was consumed at encode time.
	s.ship(ss, t1+time.Millisecond, run, nil, true)
	sent2 := s.Stats()[0].WireBytes - sent1
	if want := int64(wire); sent2 != want {
		t.Fatalf("retransmission put %d bytes on the link, want %d (must match the admitted size)", sent2, want)
	}
	st := fol.Stats()[0]
	if st.Applied != 3 || st.Duplicates != 3 {
		t.Fatalf("follower stats = %+v; want 3 applied then 3 duplicates", st)
	}
}
