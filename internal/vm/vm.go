// Package vm simulates the virtual memory subsystem MemSnap modifies:
// address spaces, memory mappings, page-fault handling, and per-thread
// dirty-set tracking.
//
// Every access to a MemSnap region goes through a Thread, the
// simulation's stand-in for a hardware thread: it owns a virtual
// clock, runs on a simulated CPU (selecting a TLB), and accumulates a
// trace buffer of (page, PTE reference) records — the kernel
// structure at the center of the paper's contribution.
//
// Two fault paths implement MemSnap's semantics (§3):
//
//   - tracking fault: first write to a clean tracked page. The page is
//     appended to the faulting thread's trace buffer, the PTE is made
//     writable, and execution continues. No copy.
//   - in-flight COW fault: write to a page an in-flight checkpoint
//     holds (mem.Page.Held). The frame is duplicated, the PTE switched to the
//     copy, and the writer proceeds against the copy while the flush
//     keeps reading the original.
package vm

import (
	"fmt"
	"sync"

	"memsnap/internal/mem"
	"memsnap/internal/pagetable"
	"memsnap/internal/sim"
	"memsnap/internal/tlb"
)

// PageSize re-exports the system page size.
const PageSize = mem.PageSize

// Backing supplies the initial contents of pages faulted in for the
// first time (the pager). Implementations charge any IO they perform
// to the supplied clock.
type Backing interface {
	// PageIn fills dst (one page) with the contents of page pageIdx
	// of the mapping.
	PageIn(clk *sim.Clock, pageIdx uint64, dst []byte)
}

// ZeroBacking is an anonymous-memory pager: pages fault in zeroed.
type ZeroBacking struct{}

// PageIn implements Backing.
func (ZeroBacking) PageIn(*sim.Clock, uint64, []byte) {}

// Mapping is one contiguous virtual range in an address space.
type Mapping struct {
	// Name identifies the mapping (MemSnap region name or file path).
	Name string
	// Start is the first virtual address (page aligned).
	Start uint64
	// Pages is the length in pages.
	Pages uint64
	// Tracked selects the MemSnap PTE configuration: the mapping is
	// writable but every PTE starts read-only so first writes fault.
	Tracked bool
	// Backing pages in initial contents.
	Backing Backing

	// SharedPages, when non-nil, makes this mapping an additional
	// view of pages owned by another mapping (multiprocess shared
	// regions). Indexed by page index within the mapping.
	SharedPages []*mem.Page
}

// End returns the first address past the mapping.
func (m *Mapping) End() uint64 { return m.Start + m.Pages*PageSize }

// DirtyRecord is one trace-buffer entry: a page dirtied by a thread
// plus the direct PTE reference used for O(1) protection reset.
type DirtyRecord struct {
	VPN     uint64
	Addr    uint64
	PTE     *pagetable.PTE
	Page    *mem.Page
	Mapping *Mapping
}

// FaultStats counts fault-handler activity.
type FaultStats struct {
	TrackingFaults int64
	COWFaults      int64
}

// AddressSpace is one process's virtual address space.
type AddressSpace struct {
	costs *sim.CostModel
	phys  *mem.PhysMem
	tlbs  *tlb.System

	mu       sync.Mutex
	table    *pagetable.Table
	mappings []*Mapping
	threads  []*Thread

	stats FaultStats
}

// NewAddressSpace creates an empty address space over the given
// physical memory and TLB system.
func NewAddressSpace(costs *sim.CostModel, phys *mem.PhysMem, tlbs *tlb.System) *AddressSpace {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	if phys == nil {
		phys = mem.New(costs)
	}
	if tlbs == nil {
		tlbs = tlb.NewSystem(costs, 1)
	}
	return &AddressSpace{
		costs: costs,
		phys:  phys,
		tlbs:  tlbs,
		table: pagetable.New(costs),
	}
}

// Costs returns the cost model.
func (as *AddressSpace) Costs() *sim.CostModel { return as.costs }

// Map installs a mapping. Overlapping ranges are rejected.
func (as *AddressSpace) Map(m *Mapping) error {
	if m.Start%PageSize != 0 {
		return fmt.Errorf("vm: mapping %q start %#x not page aligned", m.Name, m.Start)
	}
	if m.Backing == nil {
		m.Backing = ZeroBacking{}
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, other := range as.mappings {
		if m.Start < other.End() && other.Start < m.End() {
			return fmt.Errorf("vm: mapping %q overlaps %q", m.Name, other.Name)
		}
	}
	as.mappings = append(as.mappings, m)
	return nil
}

func (as *AddressSpace) findMappingLocked(addr uint64) *Mapping {
	for _, m := range as.mappings {
		if addr >= m.Start && addr < m.End() {
			return m
		}
	}
	return nil
}

// Stats returns a snapshot of fault counters.
func (as *AddressSpace) Stats() FaultStats {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.stats
}

// MappedFrames adds to set the frame behind every present PTE of the
// address space's mappings: the physical memory this address space
// accounts for. An audit helper (it scans the page tables), not a
// fast path.
func (as *AddressSpace) MappedFrames(set map[mem.Frame]struct{}) {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, m := range as.mappings {
		as.table.ScanRange(nil, m.Start/PageSize, m.Pages, func(pte *pagetable.PTE) {
			set[pte.Frame] = struct{}{}
		})
	}
}

// Threads returns the registered threads.
//
//lint:allow unreachable the shard, replica and rockskv topology tests count each address space's threads
func (as *AddressSpace) Threads() []*Thread {
	as.mu.Lock()
	defer as.mu.Unlock()
	return append([]*Thread(nil), as.threads...)
}
