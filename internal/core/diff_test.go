package core

import (
	"bytes"
	"testing"
)

// applyExtents plays an extent list back onto a copy of prev and
// returns the result — the reference patcher for diff correctness.
func applyExtents(prev, cur []byte, ext []Extent) []byte {
	out := append([]byte(nil), prev...)
	for _, e := range ext {
		copy(out[e.Off:int(e.Off)+int(e.Len)], cur[e.Off:int(e.Off)+int(e.Len)])
	}
	return out
}

func TestDiffExtents(t *testing.T) {
	prev := make([]byte, PageSize)
	for i := range prev {
		prev[i] = byte(i * 7)
	}
	cases := []struct {
		name    string
		mutate  func(cur []byte)
		extents int // expected count; -1 skips the count check
	}{
		{"identical", func(cur []byte) {}, 0},
		{"first_byte", func(cur []byte) { cur[0] ^= 1 }, 1},
		{"last_byte", func(cur []byte) { cur[PageSize-1] ^= 1 }, 1},
		{"one_run", func(cur []byte) {
			for i := 100; i < 140; i++ {
				cur[i] = 0xEE
			}
		}, 1},
		{"merged_gap", func(cur []byte) {
			// Two runs separated by fewer than diffMergeGap equal bytes
			// coalesce into one extent.
			cur[10] ^= 1
			cur[10+diffMergeGap] ^= 1
		}, 1},
		{"split_gap", func(cur []byte) {
			// Separated by at least diffMergeGap: two extents.
			cur[10] ^= 1
			cur[11+diffMergeGap] ^= 1
		}, 2},
		{"collapse", func(cur []byte) {
			// More fragmented than maxDiffExtents: collapses to one
			// spanning extent.
			for i := 0; i < PageSize; i += 2 * diffMergeGap {
				cur[i] ^= 1
			}
		}, 1},
		{"whole_page", func(cur []byte) {
			for i := range cur {
				cur[i] ^= 0xFF
			}
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := append([]byte(nil), prev...)
			tc.mutate(cur)
			ext := DiffExtents(prev, cur, make([]Extent, 0, 4))
			if tc.extents >= 0 && len(ext) != tc.extents {
				t.Fatalf("got %d extents %v, want %d", len(ext), ext, tc.extents)
			}
			if got := applyExtents(prev, cur, ext); !bytes.Equal(got, cur) {
				t.Fatal("patching the extents onto prev does not reproduce cur")
			}
			for i := 1; i < len(ext); i++ {
				if int(ext[i-1].Off)+int(ext[i-1].Len) >= int(ext[i].Off) {
					t.Fatalf("extents overlap or touch out of order: %v", ext)
				}
			}
		})
	}
}

// TestCapturePreImages: with capture enabled, the second commit of a
// page carries the byte-range diff against the first commit's content;
// the first commit of a page carries none (full-page fallback).
func TestCapturePreImages(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx.CaptureCommits(true)
	defer ctx.CaptureCommits(false)

	pg := ctx.PageForWrite(r, 0)
	pg[100] = 0xAA
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	pages := ctx.TakeCaptured()
	if len(pages) != 1 {
		t.Fatalf("first capture: %d pages", len(pages))
	}
	first := append([]byte(nil), pages[0].Data...)
	if pages[0].Extents != nil {
		t.Fatal("first capture of a page must have no diff")
	}
	ReleasePages(pages)

	pg = ctx.PageForWrite(r, 0)
	pg[100] = 0xBB
	pg[200] = 0xCC
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	pages = ctx.TakeCaptured()
	cp := &pages[0]
	if len(cp.Extents) != 2 {
		t.Fatalf("diff = %v, want two single-byte extents", cp.Extents)
	}
	if got := applyExtents(first, cp.Data, cp.Extents); !bytes.Equal(got, cp.Data) {
		t.Fatal("capture-time diff does not patch the previous capture to data")
	}
	ReleasePages(pages)
}

// preRound commits one round of page touches and counts how many of
// the captured pages were diffed against a retained pre-image.
func preRound(t *testing.T, ctx *Context, r *Region, lo, hi int64) (withPre, withoutPre int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		pg := ctx.PageForWrite(r, i*PageSize)
		pg[0]++
	}
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	pages := ctx.TakeCaptured()
	for j := range pages {
		if pages[j].Extents != nil {
			withPre++
		} else {
			withoutPre++
		}
	}
	ReleasePages(pages)
	return withPre, withoutPre
}

// TestPreImageBudgetEviction: a pre-image store sized to the working
// set retains every page's pre-image, while a store bounded below it
// evicts FIFO — re-captures of evicted pages fall back to full-page
// (nil Extents) instead of growing without bound. A working set larger
// than the budget thrashes FIFO, so at most budget pages can carry a
// pre-image per round; the cost is full-page shipping, never
// correctness.
func TestPreImageBudgetEviction(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetPreImageBudget(8)
	ctx.CaptureCommits(true)
	if w, wo := preRound(t, ctx, r, 0, 8); w != 0 || wo != 8 {
		t.Fatalf("first round: %d/%d with/without pre-image, want 0/8", w, wo)
	}
	if w, wo := preRound(t, ctx, r, 0, 8); w != 8 || wo != 0 {
		t.Fatalf("within-budget re-capture: %d/%d with/without pre-image, want 8/0", w, wo)
	}
	ctx.CaptureCommits(false) // drop the store before shrinking the budget

	ctx2 := p.NewContext(1)
	r2, err := p.Open(ctx2, "data2", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx2.SetPreImageBudget(2)
	ctx2.CaptureCommits(true)
	defer ctx2.CaptureCommits(false)
	preRound(t, ctx2, r2, 0, 8)
	w, wo := preRound(t, ctx2, r2, 0, 8)
	if w+wo != 8 {
		t.Fatalf("second round captured %d pages, want 8", w+wo)
	}
	if w > 2 {
		t.Fatalf("second round: %d pages with pre-image under a 2-page budget, want at most 2", w)
	}
}

// TestCapturePreImagePoolBalance: the retained pre-image copies, the
// per-page extent lists and the capture buffers all return to their
// pools once captures are released and capture is disabled.
func TestCapturePreImagePoolBalance(t *testing.T) {
	pages0, slices0 := CapturePoolStats()
	ext0 := CaptureExtentStats()
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx.CaptureCommits(true)
	for round := 0; round < 30; round++ {
		for i := int64(0); i < 6; i++ {
			pg := ctx.PageForWrite(r, i*PageSize)
			pg[round%PageSize]++
		}
		if _, err := ctx.Persist(r, MSSync); err != nil {
			t.Fatal(err)
		}
		ReleasePages(ctx.TakeCaptured())
	}
	// Disabling capture drops the retained pre-image store.
	ctx.CaptureCommits(false)
	pages1, slices1 := CapturePoolStats()
	ext1 := CaptureExtentStats()
	if pages1.InUse() != pages0.InUse() {
		t.Fatalf("capture page pool leaked (pre-images?): in-use %d -> %d", pages0.InUse(), pages1.InUse())
	}
	if slices1.InUse() != slices0.InUse() {
		t.Fatalf("captured-pages slice pool leaked: in-use %d -> %d", slices0.InUse(), slices1.InUse())
	}
	if ext1.InUse() != ext0.InUse() {
		t.Fatalf("extent pool leaked: in-use %d -> %d", ext0.InUse(), ext1.InUse())
	}
	if ext1.Gets == ext0.Gets {
		t.Fatal("extent pool was never exercised")
	}
}

// TestCaptureDiffSteadyStateZeroAlloc extends the zero-alloc ceiling
// to the diffing capture path: pre-image retention, the page copy and
// extent diffing must all run out of pools.
func TestCaptureDiffSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx.CaptureCommits(true)
	defer ctx.CaptureCommits(false)
	n := byte(0)
	op := func() {
		n++
		for i := int64(0); i < 8; i++ {
			pg := ctx.PageForWrite(r, i*PageSize)
			pg[int(n)%32*100]++
		}
		if _, err := ctx.Persist(r, MSSync); err != nil {
			t.Fatal(err)
		}
		ReleasePages(ctx.TakeCaptured())
	}
	for i := 0; i < 64; i++ {
		op()
	}
	if got := testing.AllocsPerRun(200, op); got > 0 {
		t.Fatalf("steady-state diffing capture allocates %.1f times per call, want 0", got)
	}
}

// BenchmarkDiffExtentsSparse diffs a page pair that differs in two
// short runs — the shape a key-value write leaves (a slot and the
// manifest counters) — so nearly all the work is skipping equal bytes.
func BenchmarkDiffExtentsSparse(b *testing.B) {
	prev := make([]byte, PageSize)
	for i := range prev {
		prev[i] = byte(i * 7)
	}
	cur := append([]byte(nil), prev...)
	for i := 0; i < 8; i++ {
		cur[1000+i] ^= 0x5A
		cur[3000+i] ^= 0xA5
	}
	dst := make([]Extent, 0, 16)
	b.SetBytes(PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = DiffExtents(prev, cur, dst[:0])
	}
	if len(dst) != 2 {
		b.Fatalf("got %d extents, want 2", len(dst))
	}
}
