package core

import (
	"fmt"
	"time"

	"memsnap/internal/mem"
	"memsnap/internal/objstore"
	"memsnap/internal/obs"
	"memsnap/internal/pool"
	"memsnap/internal/sim"
	"memsnap/internal/vm"
)

// Context is one application thread using MemSnap: it wraps a
// simulated vm thread and tracks outstanding asynchronous
// uCheckpoints.
type Context struct {
	proc *Process
	th   *vm.Thread

	pending []pendingCheckpoint

	// capture, when enabled, makes Persist retain a copy of every
	// committed page so replication can ship the uCheckpoint delta;
	// captured is the pooled slice the copies accumulate in until
	// TakeCaptured hands it over (nil while empty).
	capture  bool
	captured []CommittedPage
	// prevStores retain the last captured content of each page (one
	// store per region) so the next capture of that page carries a
	// byte-range diff against it; preImageBudget bounds each store (0:
	// DefaultPreImagePages).
	prevStores     []*prevStore
	preImageBudget int

	// Scratch buffers reused across Persist calls. A Context belongs
	// to one thread, so they need no locking; together with the page
	// and slice pools they make the steady-state persist path
	// allocation-free (TestPersistSteadyStateZeroAlloc).
	records  []vm.DirtyRecord
	vpns     []uint64
	snaps    [][]byte
	rws      []regionWrites
	holdFree [][]*mem.Page

	// LastBreakdown records the phase timing of the most recent
	// Persist call (Tables 5 and 10).
	LastBreakdown PersistBreakdown

	// StageTotals accumulates the msnap_persist phase timings across
	// all Persist/Wait calls on the context (exported via the shard
	// Prometheus exposition).
	StageTotals PersistStageTotals

	// Persists counts Persist calls; PersistLatency records their
	// caller-visible latency (sync: to durability; async: to return).
	Persists       int64
	PersistLatency obs.Histogram

	// rec, when non-nil, receives lifecycle spans for every Persist and
	// Wait on this context (and fault instants from the vm thread),
	// stamped on the recTrack lane. A nil recorder costs one branch.
	rec      *obs.Recorder
	recTrack int32
}

// SetRecorder attaches (or with nil detaches) an observability
// recorder: Persist phase spans and the thread's fault instants are
// recorded on the given trace lane in virtual time.
func (ctx *Context) SetRecorder(r *obs.Recorder, track int32) {
	ctx.rec = r
	ctx.recTrack = track
	ctx.th.SetRecorder(r, track)
}

type pendingCheckpoint struct {
	region *Region
	epoch  objstore.Epoch
	done   time.Duration
	// hold carries the pages the checkpoint that completes last in its
	// Persist call holds; nil elsewhere. Released (holds dropped, buffer
	// recycled) when the checkpoint is durable.
	hold []*mem.Page
}

// regionWrites groups one Persist call's blocks by region. Entries
// live in Context.rws and are reused call to call, preserving the
// blocks capacity; the per-call small-slice linear lookup replaces the
// old per-call map[*vm.Mapping]*regionWrites.
type regionWrites struct {
	mapping *vm.Mapping
	region  *Region
	blocks  []objstore.BlockWrite
	epoch   objstore.Epoch
	done    time.Duration
}

// PersistStageTotals is the cumulative msnap_persist breakdown:
// virtual time spent per phase, summed over every Persist (and Wait,
// for WaitIO) on a context.
type PersistStageTotals struct {
	ResetTracking  time.Duration
	InitiateWrites time.Duration
	WaitIO         time.Duration
}

// acquireHold returns a recycled checkpoint-hold buffer, or nil (the
// append in MarkCheckpointPages then allocates one that will be
// recycled on release).
func (ctx *Context) acquireHold() []*mem.Page {
	if n := len(ctx.holdFree); n > 0 {
		h := ctx.holdFree[n-1]
		ctx.holdFree = ctx.holdFree[:n-1]
		return h
	}
	return nil
}

// releaseHold retires the checkpoint's pages (holds dropped, frames an
// in-flight COW displaced and nothing else holds freed) and recycles
// the buffer. Safe on nil.
func (ctx *Context) releaseHold(pages []*mem.Page) {
	if pages == nil {
		return
	}
	ctx.proc.as.RetireCheckpointPages(pages)
	clear(pages)
	ctx.holdFree = append(ctx.holdFree, pages[:0])
}

// CommittedPage is a copy of one page of a committed uCheckpoint,
// identified by its block index within the region. Data lives in a
// pooled page buffer: the holder releases it through ReleasePages when
// done. The buffer is shared with the capturing context's pre-image
// store (the next capture of the page diffs against it), so Data is
// read-only to every holder.
type CommittedPage struct {
	Index int64
	Data  []byte

	// Extents lists the modified byte ranges of Data relative to the
	// page's content as of the previous captured commit, computed at
	// capture. Nil when no pre-image was retained (first capture of the
	// page, a fresh context, or budget eviction): such a page ships
	// whole. Empty when the page was dirtied but is byte-identical.
	Extents []Extent

	// pg is the pooled buffer backing Data; nil when Data is an
	// ordinary heap slice (snapshots, tests).
	pg *pool.Page
}

// CaptureCommits enables or disables commit capture on the context.
// While enabled, every successful Persist appends a copy of each page
// it committed (charged to the context clock as memcpy) — the
// uCheckpoint's dirty-page delta, the unit a replication layer ships to
// a follower; TakeCaptured drains them. Disabled by default.
func (ctx *Context) CaptureCommits(on bool) {
	ctx.capture = on
	if !on {
		if ctx.captured != nil {
			ReleasePages(ctx.captured)
			ctx.captured = nil
		}
		ctx.dropPreImages()
	}
}

// TakeCaptured returns the pages captured since the last call, in
// Persist order and region by region within a Persist, or nil if there
// are none. The slice is pooled and ownership passes to the caller,
// who releases it with ReleasePages.
func (ctx *Context) TakeCaptured() []CommittedPage {
	out := ctx.captured
	ctx.captured = nil
	return out
}

// PersistBreakdown is the cost split of one Persist call.
type PersistBreakdown struct {
	// ResetTracking covers protection reset plus TLB invalidation
	// ("Resetting Tracking" / "Applying COW").
	ResetTracking time.Duration
	// InitiateWrites covers building and submitting the
	// scatter/gather IO.
	InitiateWrites time.Duration
	// WaitIO is the time to durability after submission (zero for
	// async callers until Wait).
	WaitIO time.Duration
	// Total is the caller-visible latency.
	Total time.Duration
	// Pages is the uCheckpoint size in pages.
	Pages int
}

// NewContext registers a new thread in the process, running on the
// given CPU.
func (p *Process) NewContext(cpu int) *Context {
	return &Context{
		proc: p,
		th:   p.as.NewThread(nil, cpu),
	}
}

// Thread exposes the vm thread (for direct memory access).
func (ctx *Context) Thread() *vm.Thread { return ctx.th }

// Clock returns the context's virtual clock.
func (ctx *Context) Clock() *sim.Clock { return ctx.th.Clock() }

// WriteAt stores data at an offset within a region.
func (ctx *Context) WriteAt(r *Region, off int64, data []byte) {
	ctx.th.Write(r.addr+uint64(off), data)
}

// ReadAt loads bytes from an offset within a region.
func (ctx *Context) ReadAt(r *Region, off int64, buf []byte) {
	ctx.th.Read(r.addr+uint64(off), buf)
}

// PageForWrite returns the live page slice for in-place mutation at a
// region offset, running the tracking fault machinery.
func (ctx *Context) PageForWrite(r *Region, off int64) []byte {
	return ctx.th.PageForWrite(r.addr + uint64(off))
}

// PageForRead returns the page slice for reading at a region offset.
func (ctx *Context) PageForRead(r *Region, off int64) []byte {
	return ctx.th.PageForRead(r.addr + uint64(off))
}

// DirtyPages returns the size of the calling thread's dirty set.
//
//lint:allow unreachable public facade method (memsnap.Context)
func (ctx *Context) DirtyPages() int { return ctx.th.DirtyLen() }

// Persist atomically persists the dirty set as a uCheckpoint.
//
// r selects the region whose pages are persisted; nil persists
// modifications across all regions (the paper's descriptor of -1).
// By default only the calling thread's dirty set is persisted;
// MSGlobal includes every thread's. MSSync (default) blocks until the
// data is durable; MSAsync returns after initiating the IO and the
// caller uses Wait.
//
// The returned epoch identifies the uCheckpoint for Wait. When r is
// nil and several regions were dirty, the epoch of the last committed
// region is returned and Wait(nil, epoch) waits for all of them.
//
// Capture mode appends pooled pages to ctx.captured; whoever takes
// them releases them.
func (ctx *Context) Persist(r *Region, flags Flags) (objstore.Epoch, error) {
	if flags&MSSync != 0 && flags&MSAsync != 0 {
		return 0, fmt.Errorf("core: MSSync and MSAsync are mutually exclusive")
	}
	clk := ctx.th.Clock()
	start := clk.Now()
	proc := ctx.proc
	as := proc.as
	costs := proc.sys.costs

	clk.Advance(costs.SyscallEntry + costs.PersistFixed)
	ctx.sweepCompleted()

	var m *vm.Mapping
	if r != nil {
		m = r.mapping
	}

	// Gather the dirty set: the caller's, or everyone's with
	// MSGlobal. The records buffer is context scratch, reused call to
	// call.
	records := ctx.records[:0]
	if flags&MSGlobal != 0 {
		records = as.TakeDirtyAllInto(m, records)
	} else {
		records = ctx.th.TakeDirtyInto(m, records)
	}
	ctx.records = records
	if len(records) == 0 {
		ctx.Persists++
		lat := clk.Now() - start
		ctx.PersistLatency.Record(lat)
		ctx.LastBreakdown = PersistBreakdown{Total: lat}
		return 0, nil
	}
	sortRecordsByAddr(records)

	// Phase 1 — reset tracking: add the checkpoint's hold to each page,
	// write-protect them through the trace buffer, shoot down stale
	// TLB entries.
	resetStart := clk.Now()
	hold := as.MarkCheckpointPages(records, ctx.acquireHold())
	vpns := as.ResetProtectionsTraceInto(clk, records, ctx.vpns[:0])
	ctx.vpns = vpns
	proc.sys.tlbs.Invalidate(clk, vpns)
	resetDur := clk.Now() - resetStart
	ctx.rec.Span(obs.CatPersist, obs.NameResetTracking, ctx.recTrack, resetStart, resetDur, int64(len(records)))

	// Phase 2 — initiate writes: snapshot page contents (aliases,
	// protected by the unified COW) and build per-region block lists.
	initStart := clk.Now()
	snaps := as.SnapshotPagesInto(records, ctx.snaps[:0])
	ctx.snaps = snaps
	clk.Advance(costs.PersistInitiateIO + costs.PersistPerPage*time.Duration(len(records)))

	// Group blocks by region. Persist calls touch at most a handful of
	// regions, so a linear scan over the used prefix of the reusable
	// ctx.rws entries beats the old per-call map.
	nrw := 0
	for i, rec := range records {
		var rw *regionWrites
		for j := 0; j < nrw; j++ {
			if ctx.rws[j].mapping == rec.Mapping {
				rw = &ctx.rws[j]
				break
			}
		}
		if rw == nil {
			reg := proc.regionByMapping(rec.Mapping)
			if reg == nil {
				ctx.releaseHold(hold)
				return 0, fmt.Errorf("core: dirty page in non-region mapping %q", rec.Mapping.Name)
			}
			if nrw < len(ctx.rws) {
				rw = &ctx.rws[nrw]
				rw.mapping, rw.region = rec.Mapping, reg
				rw.blocks = rw.blocks[:0]
			} else {
				ctx.rws = append(ctx.rws, regionWrites{mapping: rec.Mapping, region: reg})
				rw = &ctx.rws[nrw]
			}
			nrw++
		}
		rw.blocks = append(rw.blocks, objstore.BlockWrite{
			Index: int64((rec.Addr - rec.Mapping.Start) / PageSize),
			Data:  snaps[i],
		})
	}
	initDur := clk.Now() - initStart
	ctx.rec.Span(obs.CatPersist, obs.NameInitiateWrites, ctx.recTrack, initStart, initDur, int64(len(records)))

	// Phase 3 — commit each region's uCheckpoint. Different regions
	// commit independently (per-object epochs). The holds cover pages
	// across all committed regions, so the hold attaches
	// to the checkpoint that completes last (attachIdx).
	submitAt := clk.Now()
	var lastEpoch objstore.Epoch
	var lastDone time.Duration
	attachIdx := 0
	for i := 0; i < nrw; i++ {
		rw := &ctx.rws[i]
		epoch, done, err := rw.region.obj.Commit(submitAt, rw.blocks)
		if err != nil {
			ctx.releaseHold(hold)
			return 0, err
		}
		rw.epoch, rw.done = epoch, done
		lastEpoch = epoch
		if done > lastDone {
			lastDone = done
			attachIdx = i
		}
	}
	for i := 0; i < nrw; i++ {
		rw := &ctx.rws[i]
		pc := pendingCheckpoint{region: rw.region, epoch: rw.epoch, done: rw.done}
		if i == attachIdx {
			pc.hold = hold
		}
		ctx.pending = append(ctx.pending, pc)
	}

	// Capture the delta while the snapshot aliases are still pinned by
	// the checkpoint's holds: one copy into a pooled page per dirty page,
	// so the captured data stays valid after the checkpoint releases
	// (until the taker releases the pages).
	if ctx.capture {
		if ctx.captured == nil {
			ctx.captured = GetCommittedPages(len(records))
		}
		diffBytes := 0
		for i := 0; i < nrw; i++ {
			rw := &ctx.rws[i]
			ps := ctx.prevStoreFor(rw.region)
			for _, b := range rw.blocks {
				pg := capturePagePool.Get()
				data := pg.Data[:len(b.Data)]
				copy(data, b.Data)
				cp := CommittedPage{Index: b.Index, Data: data, pg: pg}
				// One buffer, two holders: the page is this commit's Data
				// and, through the pre-image store, what the next capture
				// of the page diffs against. Retain adds the store as a
				// holder; each holder owes one Release and neither writes
				// through the buffer. The page the store held before (if
				// any) is diffed on the spot and its hold released.
				pg.Retain()
				if prev := ps.swap(b.Index, pg); prev != nil {
					cp.Extents = DiffExtents(prev.Data[:len(b.Data)], data, GetExtents())
					prev.Release()
					diffBytes += len(data)
				}
				ctx.captured = append(ctx.captured, cp)
			}
		}
		// The modelled system keeps two copies per page (delta and
		// pre-image); sharing one buffer is the simulator's economy, not
		// the model's, so the charge stays at two.
		clk.Advance(costs.MemcpyCost(2*len(records)*PageSize) + costs.DiffCost(diffBytes))
	}

	ctx.Persists++
	breakdown := PersistBreakdown{
		ResetTracking:  resetDur,
		InitiateWrites: initDur,
		Pages:          len(records),
	}
	ctx.StageTotals.ResetTracking += resetDur
	ctx.StageTotals.InitiateWrites += initDur

	if flags&MSAsync != 0 {
		breakdown.Total = clk.Now() - start
		ctx.LastBreakdown = breakdown
		ctx.PersistLatency.Record(breakdown.Total)
		ctx.rec.Span(obs.CatPersist, obs.NamePersist, ctx.recTrack, start, breakdown.Total, int64(len(records)))
		return lastEpoch, nil
	}

	// Synchronous: wait for durability and drop the checkpoint's
	// holds.
	clk.AdvanceTo(lastDone)
	breakdown.WaitIO = clk.Now() - submitAt
	breakdown.Total = clk.Now() - start
	ctx.StageTotals.WaitIO += breakdown.WaitIO
	ctx.LastBreakdown = breakdown
	ctx.PersistLatency.Record(breakdown.Total)
	ctx.rec.Span(obs.CatPersist, obs.NameWaitIO, ctx.recTrack, submitAt, breakdown.WaitIO, int64(len(records)))
	ctx.rec.Span(obs.CatPersist, obs.NamePersist, ctx.recTrack, start, breakdown.Total, int64(len(records)))
	ctx.sweepCompleted()
	return lastEpoch, nil
}

// regionByMapping resolves a mapping back to its region through the
// process's byMapping cache (maintained by Open/OpenShared).
func (p *Process) regionByMapping(m *vm.Mapping) *Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byMapping[m]
}

// sweepCompleted drops the page holds of pending checkpoints that are
// durable by now.
func (ctx *Context) sweepCompleted() {
	now := ctx.th.Clock().Now()
	kept := ctx.pending[:0]
	for _, pc := range ctx.pending {
		if pc.done <= now {
			ctx.releaseHold(pc.hold)
		} else {
			kept = append(kept, pc)
		}
	}
	ctx.pending = kept
}

// Wait blocks the context until the given epoch of region r is
// durable (r nil: until every outstanding checkpoint up to the call
// is durable).
func (ctx *Context) Wait(r *Region, epoch objstore.Epoch) {
	clk := ctx.th.Clock()
	clk.Advance(ctx.proc.sys.costs.SyscallEntry)
	waitStart := clk.Now()
	kept := ctx.pending[:0]
	for _, pc := range ctx.pending {
		match := r == nil || (pc.region == r && pc.epoch <= epoch)
		if match {
			clk.AdvanceTo(pc.done)
			ctx.releaseHold(pc.hold)
		} else {
			kept = append(kept, pc)
		}
	}
	ctx.pending = kept
	waited := clk.Now() - waitStart
	ctx.StageTotals.WaitIO += waited
	if waited > 0 {
		ctx.rec.Span(obs.CatPersist, obs.NameWaitIO, ctx.recTrack, waitStart, waited, 0)
	}
}

// OutstandingCheckpoints reports how many async uCheckpoints have not
// been waited for.
//
//lint:allow unreachable public facade method (memsnap.Context)
func (ctx *Context) OutstandingCheckpoints() int { return len(ctx.pending) }
