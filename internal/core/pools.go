package core

import "memsnap/internal/pool"

// The capture pools are shared package-wide so every producer and
// consumer of captured commits (contexts, the shard service, the
// replication shipper and follower) recycles through the same pools.
var (
	// capturePagePool backs CommittedPage.Data buffers.
	capturePagePool = pool.NewPagePool(PageSize)
	// committedPagesPool recycles []CommittedPage slices.
	committedPagesPool = pool.NewSlicePool[CommittedPage]()
)

// CapturePoolStats snapshots the capture pools — the leak-check hook:
// after a balanced capture/release workload, InUse of both pools
// returns to its pre-workload value.
func CapturePoolStats() (pages, slices pool.Stats) {
	return capturePagePool.Stats(), committedPagesPool.Stats()
}

// GetCommittedPages returns a pooled zero-length []CommittedPage with
// at least capHint capacity intent (the hint is used only on a pool
// miss). Recycle with ReleasePages or RecyclePageSlice.
//
//memsnap:owns
func GetCommittedPages(capHint int) []CommittedPage {
	return committedPagesPool.Get(capHint)
}

// ReleasePages releases every page buffer in pages — Data and any
// extent list — and recycles the slice itself. The caller must not use
// pages (or any Data it held) afterwards.
func ReleasePages(pages []CommittedPage) {
	for i := range pages {
		pages[i].pg.Release()
		ReleaseExtents(pages[i].Extents)
		pages[i] = CommittedPage{}
	}
	committedPagesPool.Put(pages)
}

// RecyclePageSlice recycles the slice WITHOUT releasing the page
// buffers — for callers that moved the CommittedPage values (and with
// them page ownership) into another slice.
func RecyclePageSlice(pages []CommittedPage) {
	committedPagesPool.Put(pages)
}

// Release returns the commit's page buffers and slice to the capture
// pools. Safe to call once per captured commit; the commit must not be
// used afterwards.
func (cc *CapturedCommit) Release() {
	if cc.Pages != nil {
		ReleasePages(cc.Pages)
		cc.Pages = nil
	}
}

// MovePages transfers ownership of the commit's pages to the caller:
// it appends the CommittedPage values to dst, recycles the commit's
// own slice, and clears it. The caller becomes responsible for
// releasing the pages (ReleasePages on the destination, once full).
func (cc *CapturedCommit) MovePages(dst []CommittedPage) []CommittedPage {
	dst = append(dst, cc.Pages...)
	RecyclePageSlice(cc.Pages)
	cc.Pages = nil
	return dst
}
