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
// miss). Recycle with ReleasePages.
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
