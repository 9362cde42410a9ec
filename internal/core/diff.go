package core

import (
	"bytes"
	"encoding/binary"

	"memsnap/internal/pool"
)

// Sub-page delta capture: while capture is enabled, a Context retains
// the last captured content of every page it commits (the pre-image
// store holds the very buffer the captured commit carries as Data, as
// a second holder — see pool.Page.Retain). At the next capture of the
// same page a byte-range diff against the retained buffer — filled at
// capture time, never re-faulted — is computed on the spot and the
// buffer's store hold is released, so replication can ship only the
// bytes that actually changed. Pages without a retained pre-image
// (first capture, post-recovery context, budget eviction) carry nil
// Extents and ship whole.

// Extent is one modified byte range of a captured page, relative to
// the page start. PageSize fits in uint16 for both fields.
type Extent struct {
	Off uint16
	Len uint16
}

const (
	// maxDiffExtents caps the extent list of one page; a diff more
	// fragmented than this collapses to a single spanning extent.
	maxDiffExtents = 96
	// diffMergeGap merges modified runs separated by fewer than this
	// many equal bytes: extent framing overhead would exceed the bytes
	// saved.
	diffMergeGap = 16
	// diffSkipChunk is the stride at which DiffExtents skips equal
	// bytes through bytes.Equal before falling back to word and byte
	// compares.
	diffSkipChunk = 128
	// DefaultPreImagePages bounds the pre-image store per (context,
	// region): FIFO eviction beyond it drops the oldest page's
	// pre-image, forcing its next capture to ship whole.
	DefaultPreImagePages = 1024
)

// extentsPool recycles per-page extent lists.
var extentsPool = pool.NewSlicePool[Extent]()

// GetExtents returns a pooled zero-length extent list.
func GetExtents() []Extent { return extentsPool.Get(16) }

// ReleaseExtents recycles an extent list. Safe on nil.
func ReleaseExtents(e []Extent) {
	if e != nil {
		extentsPool.Put(e)
	}
}

// CaptureExtentStats snapshots the extent pool (the leak-check hook
// companion of CapturePoolStats).
func CaptureExtentStats() pool.Stats { return extentsPool.Stats() }

// DiffExtents appends the modified byte ranges of cur relative to prev
// to dst (usually a pooled list from GetExtents). The two slices must
// have equal length. Runs closer than diffMergeGap coalesce; a result
// that would exceed maxDiffExtents collapses to one extent spanning
// the first to the last modified byte. An identical page yields an
// empty (but non-nil when dst was non-nil) list.
func DiffExtents(prev, cur []byte, dst []Extent) []Extent {
	n := len(cur)
	i := 0
	for i < n {
		// Skip equal bytes: whole chunks through the runtime's vector
		// compare, then 8 at a time, then singly.
		for i+diffSkipChunk <= n && bytes.Equal(prev[i:i+diffSkipChunk], cur[i:i+diffSkipChunk]) {
			i += diffSkipChunk
		}
		for i+8 <= n {
			if binary.LittleEndian.Uint64(prev[i:]) != binary.LittleEndian.Uint64(cur[i:]) {
				break
			}
			i += 8
		}
		for i < n && prev[i] == cur[i] {
			i++
		}
		if i >= n {
			break
		}
		start := i
		// Extend the modified run, absorbing equal gaps shorter than
		// diffMergeGap.
		end := i + 1
		for j := end; j < n; {
			if prev[j] != cur[j] {
				end = j + 1
				j++
				continue
			}
			// Count the equal run.
			k := j
			for k < n && k-j < diffMergeGap && prev[k] == cur[k] {
				k++
			}
			if k-j >= diffMergeGap || k == n {
				break
			}
			j = k
		}
		if len(dst) >= maxDiffExtents {
			// Too fragmented: collapse everything seen so far plus the
			// rest of the page's modifications into one spanning extent.
			first := int(dst[0].Off)
			last := end
			for j := end; j < n; j++ {
				if prev[j] != cur[j] {
					last = j + 1
				}
			}
			dst = dst[:0]
			dst = append(dst, Extent{Off: uint16(first), Len: uint16(last - first)})
			return dst
		}
		dst = append(dst, Extent{Off: uint16(start), Len: uint16(end - start)})
		i = end
	}
	return dst
}

// prevStore is one region's retained pre-image set: a dense
// page-index-to-buffer table plus a fixed-capacity FIFO ring of
// resident indices for deterministic eviction.
type prevStore struct {
	region  *Region
	pages   []*pool.Page
	ring    []int32
	head, n int
}

// swap stores newPg as the retained copy of page idx and returns the
// previous retained copy (nil when idx had none). Inserting a new
// index past the ring capacity evicts — releases — the oldest resident
// page's pre-image.
func (ps *prevStore) swap(idx int64, newPg *pool.Page) *pool.Page {
	old := ps.pages[idx]
	ps.pages[idx] = newPg
	if old != nil {
		return old
	}
	if ps.n == len(ps.ring) {
		ev := ps.ring[ps.head]
		if ps.pages[ev] != nil {
			ps.pages[ev].Release()
			ps.pages[ev] = nil
		}
		ps.ring[ps.head] = int32(idx)
		ps.head++
		if ps.head == len(ps.ring) {
			ps.head = 0
		}
		return nil
	}
	tail := ps.head + ps.n
	if tail >= len(ps.ring) {
		tail -= len(ps.ring)
	}
	ps.ring[tail] = int32(idx)
	ps.n++
	return nil
}

// drop releases every retained pre-image and empties the store.
func (ps *prevStore) drop() {
	for i, pg := range ps.pages {
		if pg != nil {
			pg.Release()
			ps.pages[i] = nil
		}
	}
	ps.head, ps.n = 0, 0
}

// prevStoreFor returns (building on first use) the context's pre-image
// store for region r. The linear scan mirrors the regionWrites lookup:
// a context touches at most a handful of regions.
func (ctx *Context) prevStoreFor(r *Region) *prevStore {
	for _, ps := range ctx.prevStores {
		if ps.region == r {
			return ps
		}
	}
	npages := int(r.Len() / PageSize)
	budget := ctx.preImageBudget
	if budget <= 0 {
		budget = DefaultPreImagePages
	}
	if budget > npages {
		budget = npages
	}
	ps := &prevStore{region: r}
	ps.pages = make([]*pool.Page, npages)
	ps.ring = make([]int32, budget)
	ctx.prevStores = append(ctx.prevStores, ps)
	return ps
}

// SetPreImageBudget bounds the pre-image store (in pages) for regions
// whose store has not been built yet; n <= 0 restores the default.
// Intended for tests exercising the eviction fallback.
//
//lint:allow unreachable the replica timeline test pins wire bytes with a small budget
func (ctx *Context) SetPreImageBudget(n int) { ctx.preImageBudget = n }

// dropPreImages releases every retained pre-image across the context's
// stores (capture disable, worker shutdown).
func (ctx *Context) dropPreImages() {
	for _, ps := range ctx.prevStores {
		ps.drop()
	}
}
