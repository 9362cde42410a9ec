// Package pagetable simulates x86-64 style multi-level radix page
// tables: 4 levels of 512-entry nodes translating a 48-bit virtual
// address, with per-entry permission bits.
//
// The package exposes the three operations MemSnap's protection-reset
// paths need (Figure 1 of the paper):
//
//   - ScanRange: linearly scan every PTE slot covering a mapping (the
//     baseline strategy, cost proportional to the mapping size);
//   - Walk: a root-to-leaf walk for one page (the per-page strategy,
//     cost proportional to the dirty set times the walk depth);
//   - direct PTE mutation through a stored *PTE (the trace-buffer
//     strategy — the PTE's address is stable for the mapping's
//     lifetime, exactly like a pinned physical PTE address).
package pagetable

import (
	"time"

	"memsnap/internal/mem"
	"memsnap/internal/sim"
)

const (
	// BitsPerLevel is the radix width of one page-table level.
	BitsPerLevel = 9
	// EntriesPerNode is the fanout of one node.
	EntriesPerNode = 1 << BitsPerLevel
	// Levels is the number of levels (L4..L1 as on x86-64).
	Levels = 4
	// MaxVPNBits is the number of virtual-page-number bits covered.
	MaxVPNBits = BitsPerLevel * Levels
)

// PTE is one leaf page-table entry. A *PTE obtained from Walk or
// EnsurePTE remains valid (and aliased to the live entry) until the
// page is unmapped — the simulation analogue of recording the PTE's
// physical address in MemSnap's trace buffer.
type PTE struct {
	// Present indicates a frame is installed.
	Present bool
	// Writable is the hardware write-permission bit. MemSnap's
	// "tracked" state is Present && !Writable on a writable mapping.
	Writable bool
	// Frame is the installed physical frame.
	Frame mem.Frame
	// VPN is the virtual page number this entry translates (kept for
	// reverse navigation during scans and debugging).
	VPN uint64
}

type node struct {
	children [EntriesPerNode]*node // nil at leaf level
	ptes     [EntriesPerNode]*PTE  // only at leaf level
}

// Table is one address space's page table. It is not internally
// synchronized; the owning address space serializes access.
type Table struct {
	costs *sim.CostModel
	root  *node
}

// New returns an empty table.
func New(costs *sim.CostModel) *Table {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &Table{costs: costs, root: &node{}}
}

func indexAt(vpn uint64, level int) int {
	// level 0 is the root (L4); level Levels-1 selects the leaf slot.
	shift := uint((Levels - 1 - level) * BitsPerLevel)
	return int((vpn >> shift) & (EntriesPerNode - 1))
}

// EnsurePTE returns the PTE for vpn, allocating intermediate nodes as
// needed. No cost is charged: table construction happens at mmap time,
// which the paper does not measure.
func (t *Table) EnsurePTE(vpn uint64) *PTE {
	n := t.root
	for level := 0; level < Levels-1; level++ {
		idx := indexAt(vpn, level)
		child := n.children[idx]
		if child == nil {
			child = &node{}
			n.children[idx] = child
		}
		n = child
	}
	idx := indexAt(vpn, Levels-1)
	pte := n.ptes[idx]
	if pte == nil {
		pte = &PTE{VPN: vpn}
		n.ptes[idx] = pte
	}
	return pte
}

// Lookup returns the PTE for vpn without charging cost, or nil if no
// entry exists. Used by tests and by the TLB-refill fast path whose
// cost is charged separately.
func (t *Table) Lookup(vpn uint64) *PTE {
	n := t.root
	for level := 0; level < Levels-1; level++ {
		n = n.children[indexAt(vpn, level)]
		if n == nil {
			return nil
		}
	}
	return n.ptes[indexAt(vpn, Levels-1)]
}

// Walk performs a charged root-to-leaf walk for vpn: the per-page
// protection-reset strategy. Returns nil if the page is unmapped.
func (t *Table) Walk(clk *sim.Clock, vpn uint64) *PTE {
	if clk != nil {
		clk.Advance(t.costs.PageWalk)
	}
	return t.Lookup(vpn)
}

// Map installs a frame at vpn with the given write permission.
func (t *Table) Map(vpn uint64, frame mem.Frame, writable bool) *PTE {
	pte := t.EnsurePTE(vpn)
	pte.Present = true
	pte.Writable = writable
	pte.Frame = frame
	return pte
}

// ScanRange visits every PTE slot in the leaf tables spanning
// [startVPN, startVPN+pages) and invokes fn for each present entry.
// The charged cost covers every slot in every touched leaf node —
// present or not — which is what makes the full-scan strategy
// expensive for sparse dirty sets (Figure 1's baseline).
func (t *Table) ScanRange(clk *sim.Clock, startVPN, pages uint64, fn func(*PTE)) {
	if pages == 0 {
		return
	}
	endVPN := startVPN + pages - 1
	firstLeaf := startVPN >> BitsPerLevel
	lastLeaf := endVPN >> BitsPerLevel
	slots := (lastLeaf - firstLeaf + 1) * EntriesPerNode
	if clk != nil {
		clk.Advance(t.costs.PageTableScanPerEntry * time.Duration(slots))
	}
	for leaf := firstLeaf; leaf <= lastLeaf; leaf++ {
		ln := t.leafNode(leaf)
		if ln == nil {
			continue
		}
		for i := 0; i < EntriesPerNode; i++ {
			pte := ln.ptes[i]
			if pte == nil || !pte.Present {
				continue
			}
			if pte.VPN < startVPN || pte.VPN > endVPN {
				continue
			}
			fn(pte)
		}
	}
}

// leafNode returns the leaf node covering leafIndex (vpn >>
// BitsPerLevel), or nil.
func (t *Table) leafNode(leafIndex uint64) *node {
	vpn := leafIndex << BitsPerLevel
	n := t.root
	for level := 0; level < Levels-1; level++ {
		n = n.children[indexAt(vpn, level)]
		if n == nil {
			return nil
		}
	}
	return n
}
