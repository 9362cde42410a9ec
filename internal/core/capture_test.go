package core

import (
	"bytes"
	"testing"
)

// TestCaptureCommits exercises the replication capture hook: disabled
// by default, a faithful copy of each committed page when enabled,
// drained by TakeCaptured, cleared when disabled.
func TestCaptureCommits(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// Capture is off by default: nothing accumulates.
	ctx.WriteAt(r, 0, []byte("aa"))
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	if got := ctx.TakeCaptured(); got != nil {
		t.Fatalf("captured %d pages with capture disabled", len(got))
	}

	ctx.CaptureCommits(true)
	ctx.WriteAt(r, 0, []byte("bb"))
	ctx.WriteAt(r, 3*PageSize+5, []byte("cc"))
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	pages := ctx.TakeCaptured()
	if len(pages) != 2 {
		t.Fatalf("captured %d pages, want 2 (pages 0 and 3)", len(pages))
	}
	byIndex := map[int64][]byte{}
	for _, pg := range pages {
		if len(pg.Data) != PageSize {
			t.Fatalf("captured page %d has %d bytes", pg.Index, len(pg.Data))
		}
		byIndex[pg.Index] = pg.Data
	}
	if !bytes.Equal(byIndex[0][:2], []byte("bb")) {
		t.Fatalf("page 0 capture = %q", byIndex[0][:2])
	}
	if !bytes.Equal(byIndex[3][5:7], []byte("cc")) {
		t.Fatalf("page 3 capture = %q", byIndex[3][5:7])
	}

	// The capture is a copy: later region writes must not alias it.
	ctx.WriteAt(r, 0, []byte("zz"))
	if !bytes.Equal(byIndex[0][:2], []byte("bb")) {
		t.Fatal("captured page aliases live region memory")
	}

	ReleasePages(pages)

	// TakeCaptured drains.
	if got := ctx.TakeCaptured(); got != nil {
		t.Fatalf("second TakeCaptured returned %d pages", len(got))
	}

	// Pages accumulate across commits, in Persist order, until taken.
	ctx.WriteAt(r, PageSize, []byte("dd"))
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	ctx.WriteAt(r, 2*PageSize, []byte("ee"))
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	// The first commit also carries page 0, dirtied by the "zz" write.
	got := ctx.TakeCaptured()
	var idx []int64
	for _, pg := range got {
		idx = append(idx, pg.Index)
	}
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 2 {
		t.Fatalf("captured pages %v, want [0 1 2]", idx)
	}
	ReleasePages(got)

	// Disabling clears anything buffered.
	ctx.WriteAt(r, 0, []byte("ff"))
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatal(err)
	}
	ctx.CaptureCommits(false)
	if got := ctx.TakeCaptured(); got != nil {
		t.Fatalf("CaptureCommits(false) left %d buffered pages", len(got))
	}
}

// TestCaptureSharesBufferWithPreImage pins the one-buffer-two-holders
// rule: the page a captured commit carries as Data is the very buffer
// the pre-image store keeps for the next capture of that page, nobody
// writes through it while the earlier commit is still held (being
// shipped), and the next capture diffs against it and drops the
// store's hold on the spot, so it returns to the pool as soon as the
// commit that carried it is released.
func TestCaptureSharesBufferWithPreImage(t *testing.T) {
	pages0, _ := CapturePoolStats()
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx.CaptureCommits(true)
	capture := func(fill byte) []CommittedPage {
		t.Helper()
		pg := ctx.PageForWrite(r, 3*PageSize)
		for i := 100; i < 132; i++ {
			pg[i] = fill
		}
		if _, err := ctx.Persist(r, MSSync); err != nil {
			t.Fatal(err)
		}
		pages := ctx.TakeCaptured()
		if len(pages) != 1 {
			t.Fatalf("captured %+v, want one page", pages)
		}
		return pages
	}

	first := capture(0x11)
	if got := capturePagesInUse() - pages0.InUse(); got != 1 {
		t.Fatalf("first capture holds %d pooled pages, want 1 (one copy, shared with the pre-image store)", got)
	}
	shipped := append([]byte(nil), first[0].Data...)

	// The first commit is still held — as a delta in the shipper's
	// window would be — while the page is captured again.
	second := capture(0x22)
	cp := second[0]
	if len(cp.Extents) != 1 || cp.Extents[0] != (Extent{Off: 100, Len: 32}) {
		t.Fatalf("extents = %v, want one [100,132) against the first commit's content", cp.Extents)
	}
	if !bytes.Equal(first[0].Data, shipped) {
		t.Fatal("the shared buffer changed under the held commit")
	}
	if got := capturePagesInUse() - pages0.InUse(); got != 2 {
		t.Fatalf("two captures of one page hold %d pooled pages, want 2", got)
	}

	// The store let go of the first buffer when the second capture
	// diffed against it: the held commit is its last holder.
	ReleasePages(first)
	if got := capturePagesInUse() - pages0.InUse(); got != 1 {
		t.Fatalf("in use %d after the first commit released, want 1", got)
	}
	ReleasePages(second)
	ctx.CaptureCommits(false)
	if got := capturePagesInUse() - pages0.InUse(); got != 0 {
		t.Fatalf("capture page pool leaked: %d pages still out", got)
	}
}

// capturePagesInUse is the capture page pool's in-use count.
func capturePagesInUse() int64 {
	pages, _ := CapturePoolStats()
	return pages.InUse()
}

// BenchmarkPersistCapture2Pages is the replicated shard's commit shape
// on the core API: dirty a slot page and a manifest page a few bytes
// each, Persist(MSSync) with capture on, take and release the commit.
func BenchmarkPersistCapture2Pages(b *testing.B) {
	sys, err := NewSystem(Options{CPUs: 1, DiskBytesEach: 512 << 20})
	if err != nil {
		b.Fatal(err)
	}
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	ctx.CaptureCommits(true)
	defer ctx.CaptureCommits(false)
	op := func(i int) {
		ctx.PageForWrite(r, 0)[i%64*8]++
		ctx.PageForWrite(r, int64(1+i%8)*PageSize)[i%500*8]++
		if _, err := ctx.Persist(r, MSSync); err != nil {
			b.Fatal(err)
		}
		ReleasePages(ctx.TakeCaptured())
	}
	for i := 0; i < 64; i++ {
		op(i)
	}
	b.SetBytes(2 * PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}
