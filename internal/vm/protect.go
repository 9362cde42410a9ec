package vm

import (
	"memsnap/internal/mem"
	"memsnap/internal/pagetable"
	"memsnap/internal/sim"
)

// This file implements the three techniques for re-applying read
// protection to a dirty set after a uCheckpoint, compared in Figure 1
// of the paper:
//
//   - ResetProtectionsScan: traverse the page tables of the whole
//     mapping to find and protect dirty pages (the baseline). Cost is
//     proportional to the mapping size.
//   - ResetProtectionsWalk: walk the page table from the root once per
//     dirty page. Cost is walkDepth x dirty pages.
//   - ResetProtectionsTrace: modify the PTEs directly through the
//     references recorded in the trace buffer at fault time. Cost is
//     one PTE store per dirty page — MemSnap's strategy.
//
// All three also reset protections in *other* address spaces that map
// the same physical page (multiprocess applications) by following the
// page's physical-to-virtual reverse mappings, and clear the
// FlagTracked bit.

// resetOtherMappings write-protects every mapping of pg outside as,
// charging a page walk plus a PTE write per remote address space.
func resetOtherMappings(clk *sim.Clock, as *AddressSpace, pg *mem.Page, costs *sim.CostModel) {
	for _, rm := range pg.Mappings() {
		other, ok := rm.Owner.(*AddressSpace)
		if !ok || other == as {
			continue
		}
		other.mu.Lock()
		if pte := other.table.Lookup(rm.VPN); pte != nil && pte.Present {
			if clk != nil {
				clk.Advance(costs.PageWalk + costs.PTEWrite)
			}
			pte.Writable = false
		}
		other.mu.Unlock()
		other.tlbs.ShootdownPage(clk, rm.VPN)
	}
}

// ResetProtectionsTrace is MemSnap's protection reset: direct PTE
// stores through the trace-buffer references. The caller passes the
// records taken from a thread's trace buffer. Returns the VPNs reset
// (for the TLB invalidation that must follow).
func (as *AddressSpace) ResetProtectionsTrace(clk *sim.Clock, records []DirtyRecord) []uint64 {
	return as.ResetProtectionsTraceInto(clk, records, nil)
}

// ResetProtectionsTraceInto is ResetProtectionsTrace appending the
// reset VPNs into a caller-owned buffer, so the persist hot path can
// reuse one across calls.
func (as *AddressSpace) ResetProtectionsTraceInto(clk *sim.Clock, records []DirtyRecord, vpns []uint64) []uint64 {
	as.mu.Lock()
	for _, rec := range records {
		if clk != nil {
			clk.Advance(as.costs.PTEWrite)
		}
		rec.PTE.Writable = false
		rec.Page.ClearFlag(mem.FlagTracked)
		vpns = append(vpns, rec.VPN)
	}
	as.mu.Unlock()
	for _, rec := range records {
		if rec.Page.RefCount() > 1 {
			resetOtherMappings(clk, as, rec.Page, as.costs)
		}
	}
	return vpns
}

// ResetProtectionsWalk implements the per-page strategy: a full
// root-to-leaf walk for every dirty page.
func (as *AddressSpace) ResetProtectionsWalk(clk *sim.Clock, records []DirtyRecord) []uint64 {
	as.mu.Lock()
	vpns := make([]uint64, 0, len(records))
	for _, rec := range records {
		if pte := as.table.Walk(clk, rec.VPN); pte != nil {
			if clk != nil {
				clk.Advance(as.costs.PTEWrite)
			}
			pte.Writable = false
		}
		rec.Page.ClearFlag(mem.FlagTracked)
		vpns = append(vpns, rec.VPN)
	}
	as.mu.Unlock()
	for _, rec := range records {
		if rec.Page.RefCount() > 1 {
			resetOtherMappings(clk, as, rec.Page, as.costs)
		}
	}
	return vpns
}

// ResetProtectionsScan implements the baseline strategy: linearly
// scan the page tables spanning the whole mapping and protect every
// writable entry found. Cost scales with the mapping, not the dirty
// set.
func (as *AddressSpace) ResetProtectionsScan(clk *sim.Clock, m *Mapping) []uint64 {
	as.mu.Lock()
	var vpns []uint64
	as.table.ScanRange(clk, m.Start/PageSize, m.Pages, func(pte *pagetable.PTE) {
		if !pte.Writable {
			return
		}
		if clk != nil {
			clk.Advance(as.costs.PTEWrite)
		}
		pte.Writable = false
		if pg := as.phys.Page(pte.Frame); pg != nil {
			pg.ClearFlag(mem.FlagTracked)
		}
		vpns = append(vpns, pte.VPN)
	})
	as.mu.Unlock()
	return vpns
}

// MarkCheckpointPages adds one uCheckpoint hold to every record's page
// and appends the pages to buf. Call it BEFORE resetting protections: a
// writer that faults while the flush is being prepared must already
// observe the hold and take the COW path. The caller retires the pages
// with RetireCheckpointPages when the IO completes.
func (as *AddressSpace) MarkCheckpointPages(records []DirtyRecord, buf []*mem.Page) []*mem.Page {
	for _, rec := range records {
		rec.Page.Hold()
		buf = append(buf, rec.Page)
	}
	return buf
}

// RetireCheckpointPages ends the uCheckpoint that marked pages: it
// drops its hold on each and returns to the allocator every frame a
// writer's in-flight COW displaced meanwhile and nothing else holds.
// Until here the displaced frame was the checkpoint's snapshot; no
// mapping of this address space refers to it (the COW path repointed
// the PTE and shot the translation down on every CPU).
//
//memsnap:hotpath
func (as *AddressSpace) RetireCheckpointPages(pages []*mem.Page) {
	for _, pg := range pages {
		pg.Unhold()
		as.reclaim(pg)
	}
}

// reclaim frees pg's frame if nothing refers to it: no mapping and no
// uCheckpoint hold. The COW path calls it after dropping the last
// mapping and the retire step after dropping its hold, so the frame is
// freed by whichever comes last; when they race both may get here, and
// PhysMem.Free frees once.
func (as *AddressSpace) reclaim(pg *mem.Page) {
	if pg.RefCount() == 0 && !pg.Held() {
		as.phys.Free(pg)
	}
}

// SnapshotPagesInto appends the frame bytes of each record's page to
// snapshots. The slices alias live frames; the uCheckpoint hold
// guarantees stability because any concurrent writer duplicates the
// frame (unified COW) rather than mutating it.
func (as *AddressSpace) SnapshotPagesInto(records []DirtyRecord, snapshots [][]byte) [][]byte {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, rec := range records {
		snapshots = append(snapshots, rec.Page.Data())
	}
	return snapshots
}
