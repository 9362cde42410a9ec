// Package aurora reimplements the checkpointing baseline MemSnap is
// compared against: the Aurora single level store's "system
// shadowing" mechanism (SOSP'21), with both region checkpoints and
// whole-application checkpoints.
//
// Aurora's region checkpoint works in four phases, reproduced here
// with their cost structure (Tables 2 and 10 of the MemSnap paper):
//
//  1. Waiting for calls — every application thread is stopped; a
//     serialization point whose cost does not scale down with the
//     dirty set.
//  2. Applying COW — a "shadow object" is created covering the whole
//     mapping; cost proportional to the mapping size.
//  3. Flush IO — the dirty pages are written out (threads may resume).
//  4. Removing COW — the shadow object is collapsed back into the
//     base object; cost proportional to the mapping size, and the
//     region cannot start another checkpoint until it finishes.
//
// Only one checkpoint per region can be outstanding, so concurrent
// callers serialize — the effect that collapses RocksDB throughput in
// Table 9.
package aurora

import (
	"fmt"
	"sync"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/sim"
)

// PageSize is Aurora's checkpoint granularity.
const PageSize = 4096

// Breakdown is the cost split of one checkpoint (Table 2 / Table 10).
type Breakdown struct {
	WaitingForCalls time.Duration
	ApplyingCOW     time.Duration
	FlushIO         time.Duration
	RemovingCOW     time.Duration
	Total           time.Duration
}

// Region is one Aurora memory region backed by a contiguous disk
// area.
type Region struct {
	costs    *sim.CostModel
	arr      *disk.Array
	diskBase int64

	mu    sync.Mutex
	data  []byte
	dirty map[int64]bool // page index -> dirty since last checkpoint

	// nextFree is the virtual time at which the region can accept
	// another checkpoint (collapse must finish first).
	nextFree time.Duration
}

// NewRegion creates a region of size bytes whose checkpoints persist
// to [diskBase, diskBase+size) on arr.
func NewRegion(costs *sim.CostModel, arr *disk.Array, diskBase, size int64) *Region {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &Region{
		costs:    costs,
		arr:      arr,
		diskBase: diskBase,
		data:     make([]byte, size),
		dirty:    make(map[int64]bool),
	}
}

// Size returns the region size in bytes.
func (r *Region) Size() int64 { return int64(len(r.data)) }

// Write stores data at off, dirtying the covered pages. Aurora does
// not fault per write; tracking happens wholesale at checkpoint time
// via the shadow object, so writes cost only the memcpy.
func (r *Region) Write(clk *sim.Clock, off int64, data []byte) {
	if off < 0 || off+int64(len(data)) > int64(len(r.data)) {
		panic(fmt.Sprintf("aurora: write out of range: off=%d len=%d", off, len(data)))
	}
	clk.Advance(r.costs.MemcpyCost(len(data)))
	r.mu.Lock()
	copy(r.data[off:], data)
	for p := off / PageSize; p <= (off+int64(len(data))-1)/PageSize; p++ {
		r.dirty[p] = true
	}
	r.mu.Unlock()
}

// perGiB scales a per-GiB cost by a byte count.
func perGiB(cost time.Duration, bytes int64) time.Duration {
	return time.Duration(int64(cost) * bytes / (1 << 30))
}

// Checkpoint synchronously persists the region's dirty set using
// system shadowing and returns the phase breakdown. Concurrent
// checkpoints of one region serialize: a caller whose region is busy
// first waits for the previous collapse to finish.
func (r *Region) Checkpoint(clk *sim.Clock) Breakdown {
	start := clk.Now()
	r.mu.Lock()

	// Serialize on the region: only one outstanding checkpoint.
	if r.nextFree > clk.Now() {
		clk.AdvanceTo(r.nextFree)
	}

	var b Breakdown

	// Phase 1: stop all threads.
	clk.Advance(r.costs.AuroraStopThreadsFixed)
	b.WaitingForCalls = r.costs.AuroraStopThreadsFixed

	// Phase 2: apply COW over the whole mapping (shadow object).
	shadow := perGiB(r.costs.AuroraShadowPerGiB, int64(len(r.data)))
	clk.Advance(shadow)
	b.ApplyingCOW = shadow

	// Snapshot the dirty set; threads resume after shadowing.
	var extents []disk.Extent
	for p := range r.dirty {
		pageData := make([]byte, PageSize)
		copy(pageData, r.data[p*PageSize:])
		extents = append(extents, disk.Extent{Offset: r.diskBase + p*PageSize, Data: pageData})
	}
	r.dirty = make(map[int64]bool)

	// Phase 3: flush IO.
	ioStart := clk.Now()
	done := r.arr.WriteV(ioStart, extents)
	clk.AdvanceTo(done)
	b.FlushIO = clk.Now() - ioStart

	// Phase 4: collapse the shadow object. The region stays busy
	// until this completes.
	collapse := perGiB(r.costs.AuroraCollapsePerGiB, int64(len(r.data)))
	clk.Advance(collapse)
	b.RemovingCOW = collapse
	r.nextFree = clk.Now()

	r.mu.Unlock()
	b.Total = clk.Now() - start
	return b
}

// App models a whole application for Aurora's full checkpoints: the
// sum of its regions plus anonymous memory (heap, stacks, OS state).
type App struct {
	costs *sim.CostModel
	// Regions included in the application image.
	Regions []*Region
	// ExtraBytes is the non-region application footprint.
	ExtraBytes int64
}

// NewApp creates an application wrapper.
func NewApp(costs *sim.CostModel, regions []*Region, extraBytes int64) *App {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &App{costs: costs, Regions: regions, ExtraBytes: extraBytes}
}

// Checkpoint takes a full application checkpoint: protect and scan
// the entire address space, then checkpoint every region. An order of
// magnitude costlier than region checkpoints (Figure 3).
func (a *App) Checkpoint(clk *sim.Clock) Breakdown {
	start := clk.Now()
	var total int64 = a.ExtraBytes
	for _, r := range a.Regions {
		total += r.Size()
	}
	clk.Advance(a.costs.AuroraAppCheckpointFixed)
	clk.Advance(perGiB(a.costs.AuroraAppCheckpointPerGiB, total))
	var b Breakdown
	for _, r := range a.Regions {
		rb := r.Checkpoint(clk)
		b.WaitingForCalls += rb.WaitingForCalls
		b.ApplyingCOW += rb.ApplyingCOW
		b.FlushIO += rb.FlushIO
		b.RemovingCOW += rb.RemovingCOW
	}
	b.Total = clk.Now() - start
	return b
}
