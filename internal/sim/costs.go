package sim

import "time"

// CostModel holds the calibrated virtual-time cost of every primitive
// operation in the simulation. The defaults are calibrated so that the
// direct-IO column of the paper's Table 6 is reproduced by the disk
// model (17 us for a 4 KiB write through 44 us for 64 KiB on the
// simulated Intel 900P) and so that the MemSnap / fsync breakdowns in
// Tables 5-10 land in the paper's regime.
//
// A CostModel is plain data: copy it, tweak fields, and pass it down.
// All components receive the model by pointer at construction time so a
// whole experiment shares one set of constants.
type CostModel struct {
	// --- CPU / VM primitives ---

	// SyscallEntry is the fixed cost of entering and leaving the
	// kernel (trap, register save, return).
	SyscallEntry time.Duration

	// MinorFault is the cost of a minor (no page copy, no disk IO)
	// write fault: trap, vm_fault lookup, dirty-set append, PTE
	// update, return. This is MemSnap's tracking fault.
	MinorFault time.Duration

	// COWFault is the cost of a copy-on-write fault: MinorFault plus
	// allocating a frame and copying 4 KiB.
	COWFault time.Duration

	// PTEWrite is the cost of updating one page-table entry through a
	// stored reference (MemSnap's trace buffer path).
	PTEWrite time.Duration

	// PageWalk is the cost of walking the page table from the root to
	// one leaf PTE (the per-page strategy in Figure 1).
	PageWalk time.Duration

	// PageTableScanPerEntry is the cost of visiting one PTE slot while
	// linearly scanning a mapping's page tables (the baseline strategy
	// in Figure 1). Scans visit every slot, present or not.
	PageTableScanPerEntry time.Duration

	// TLBShootdownPerPage is the cost of invalidating a single page on
	// all CPUs (IPI + INVLPG).
	TLBShootdownPerPage time.Duration

	// TLBFullFlush is the cost of invalidating an entire TLB on all
	// CPUs.
	TLBFullFlush time.Duration

	// TLBFlushThreshold is the dirty-set size (in pages) above which
	// MemSnap issues a full flush instead of per-page shootdowns.
	TLBFlushThreshold int

	// MemcpyPerKiB is the cost of copying one KiB of memory.
	MemcpyPerKiB time.Duration

	// DiffPerKiB is the cost of byte-wise scanning one KiB of memory on
	// the replication path: pre-image comparison when a captured page is
	// diffed. The encoder's scan of each diffed page and the follower's
	// scan of each full frame are still charged at this rate, though
	// neither pass runs any more (no XOR pass, no follower hash chain).
	// Scans are read-mostly and SIMD-friendly, so the default is cheaper
	// than a copy.
	DiffPerKiB time.Duration

	// FrameAlloc is the cost of allocating one physical frame.
	FrameAlloc time.Duration

	// ThreadStop is the cost of stopping one running thread and
	// waiting for it to park (used by Aurora's system shadowing).
	ThreadStop time.Duration

	// ThreadResume is the cost of resuming one parked thread.
	ThreadResume time.Duration

	// --- Disk (per device in the stripe) ---

	// DiskBaseLatency is the fixed cost of one IO command
	// (submission, flash program setup, completion interrupt).
	// Per-byte transfer cost is the package constant
	// diskPerBytePicos; see TransferCost.
	DiskBaseLatency time.Duration

	// DiskSectorSize is the atomic write unit in bytes. Power cuts
	// never tear a sector.
	DiskSectorSize int

	// StripeSize is the striping unit of the simulated two-disk
	// array in bytes.
	StripeSize int

	// --- Replication link ---

	// LinkBaseLatency is the fixed one-way cost of a message on the
	// simulated replication link (propagation plus NIC and protocol
	// processing). Per-byte transfer cost is the package constant
	// linkPerBytePicos; see LinkTransferCost.
	LinkBaseLatency time.Duration

	// --- File system / buffer cache (baselines) ---

	// VFSLookup is the per-call overhead of the VFS layer (vnode
	// locks, rangelocks, path to the FS-specific code).
	VFSLookup time.Duration

	// BufferCacheLookup is the cost of finding one block in the
	// buffer cache.
	BufferCacheLookup time.Duration

	// BufferCacheInsert is the cost of inserting/dirtying one block.
	BufferCacheInsert time.Duration

	// JournalCommit is the fixed cost of committing a journal
	// transaction (write + barrier), excluding the data transfer.
	JournalCommit time.Duration

	// FFSMetaPerBlock is the metadata update cost FFS pays per dirty
	// block flushed from a random write pattern (cylinder-group and
	// indirect-block read-modify-write cycles). Sequential extents
	// amortize this away.
	FFSMetaPerBlock time.Duration

	// FFSMetaBatch is the number of random blocks after which FFS's
	// journal begins batching metadata updates, dropping the per-block
	// cost to FFSMetaPerBlockBatched.
	FFSMetaBatch           int
	FFSMetaPerBlockBatched time.Duration

	// ZFSTxgFixed is the fixed cost of a ZFS transaction-group commit
	// (uberblock ring updates and barriers).
	ZFSTxgFixed time.Duration

	// ZFSIndirectPerBlock is the COW indirect-chain rewrite cost ZFS
	// pays per random dirty block before tree-level amortization.
	ZFSIndirectPerBlock time.Duration

	// ZFSIndirectBatch mirrors FFSMetaBatch for the COW tree.
	ZFSIndirectBatch           int
	ZFSIndirectPerBlockBatched time.Duration

	// --- MemSnap persist path ---

	// PersistFixed is the fixed CPU cost of msnap_persist before any
	// per-page work (argument validation, thread dirty-list lookup).
	PersistFixed time.Duration

	// PersistInitiateIO is the CPU cost of building and submitting the
	// scatter/gather IO for a uCheckpoint (the "Initiating Writes" row
	// of Table 5).
	PersistInitiateIO time.Duration

	// PersistPerPage is the per-page CPU cost of adding one dirty page
	// to the scatter/gather list.
	PersistPerPage time.Duration

	// KVOpCost is the userspace CPU a key-value engine spends per
	// operation regardless of persistence design (memtable search,
	// comparators, block handling) — the "Tx Memory" work of Table 1.
	KVOpCost time.Duration

	// MmapAccessPenalty is the extra per-row-op cost of operating on
	// directly mapped table data instead of a managed buffer cache:
	// page-fault storms, TLB pressure and lost prefetch (the
	// historical observation the paper corroborates via its ffs-mmap
	// variants, citing "Are you sure you want to use mmap...").
	MmapAccessPenalty time.Duration

	// PGExecutorPerRowOp is the upper-layer CPU cost PostgreSQL pays
	// per row operation (parser/planner amortization, executor nodes,
	// index lookups, tuple locking) — the reason storage-path gains
	// move end-to-end TPC-C throughput by only a few percent (§7.3).
	PGExecutorPerRowOp time.Duration

	// --- Aurora (baseline SLS) ---

	// AuroraStopThreadsFixed is the serialization cost of stopping all
	// threads for system shadowing ("Waiting for Calls", Table 10).
	AuroraStopThreadsFixed time.Duration

	// AuroraShadowPerGiB is the cost of applying COW shadowing,
	// proportional to the mapping size (not the dirty set).
	AuroraShadowPerGiB time.Duration

	// AuroraCollapsePerGiB is the cost of collapsing the shadow object
	// back into the base object after the IO completes.
	AuroraCollapsePerGiB time.Duration

	// AuroraAppCheckpointFixed is the extra fixed cost of a full
	// application checkpoint (OS state serialization, address-space
	// wide protection) over a region checkpoint.
	AuroraAppCheckpointFixed time.Duration

	// AuroraAppCheckpointPerGiB is the per-GiB cost of protecting and
	// scanning the entire address space for application checkpoints.
	AuroraAppCheckpointPerGiB time.Duration
}

// DefaultCosts returns the calibrated cost model used by all paper
// experiments. See DESIGN.md for the calibration targets.
func DefaultCosts() *CostModel {
	return &CostModel{
		SyscallEntry:          500 * time.Nanosecond,
		MinorFault:            1300 * time.Nanosecond,
		COWFault:              2600 * time.Nanosecond,
		PTEWrite:              60 * time.Nanosecond,
		PageWalk:              350 * time.Nanosecond,
		PageTableScanPerEntry: 4 * time.Nanosecond,
		TLBShootdownPerPage:   220 * time.Nanosecond,
		TLBFullFlush:          2 * time.Microsecond,
		TLBFlushThreshold:     32,
		MemcpyPerKiB:          45 * time.Nanosecond,
		DiffPerKiB:            30 * time.Nanosecond,
		FrameAlloc:            180 * time.Nanosecond,
		ThreadStop:            2200 * time.Nanosecond,
		ThreadResume:          900 * time.Nanosecond,

		DiskBaseLatency: 15500 * time.Nanosecond,
		DiskSectorSize:  512,
		StripeSize:      64 << 10,

		LinkBaseLatency: 20 * time.Microsecond,

		VFSLookup:         900 * time.Nanosecond,
		BufferCacheLookup: 350 * time.Nanosecond,
		BufferCacheInsert: 600 * time.Nanosecond,
		JournalCommit:     38 * time.Microsecond,

		FFSMetaPerBlock:        104 * time.Microsecond,
		FFSMetaBatch:           128,
		FFSMetaPerBlockBatched: 16 * time.Microsecond,

		ZFSTxgFixed:                42 * time.Microsecond,
		ZFSIndirectPerBlock:        168 * time.Microsecond,
		ZFSIndirectBatch:           96,
		ZFSIndirectPerBlockBatched: 11 * time.Microsecond,

		KVOpCost:           40 * time.Microsecond,
		MmapAccessPenalty:  22 * time.Microsecond,
		PGExecutorPerRowOp: 180 * time.Microsecond,

		PersistFixed:      1800 * time.Nanosecond,
		PersistInitiateIO: 5200 * time.Nanosecond,
		PersistPerPage:    80 * time.Nanosecond,

		AuroraStopThreadsFixed:    26700 * time.Nanosecond,
		AuroraShadowPerGiB:        80 * time.Microsecond,
		AuroraCollapsePerGiB:      92 * time.Microsecond,
		AuroraAppCheckpointFixed:  400 * time.Microsecond,
		AuroraAppCheckpointPerGiB: 2500 * time.Microsecond,
	}
}

// diskPerBytePicos is the per-byte transfer cost in picoseconds.
// 0.45 ns/B cannot be expressed as a time.Duration, so transfer costs
// use integer math at picosecond resolution.
const diskPerBytePicos = 450

// TransferCost returns the transfer time for n bytes on one device.
func (m *CostModel) TransferCost(n int) time.Duration {
	return time.Duration(int64(n) * diskPerBytePicos / 1000)
}

// IOCost returns the full cost of a single contiguous IO of n bytes on
// one device: base latency plus transfer.
func (m *CostModel) IOCost(n int) time.Duration {
	return m.DiskBaseLatency + m.TransferCost(n)
}

// MemcpyCost returns the cost of copying n bytes.
func (m *CostModel) MemcpyCost(n int) time.Duration {
	return time.Duration(int64(n) * int64(m.MemcpyPerKiB) / 1024)
}

// DiffCost returns the cost of byte-wise scanning n bytes (pre-image
// diffing on the replication path).
func (m *CostModel) DiffCost(n int) time.Duration {
	return time.Duration(int64(n) * int64(m.DiffPerKiB) / 1024)
}

// linkPerBytePicos is the replication link's per-byte transfer cost in
// picoseconds: 0.8 ns/B, roughly a dedicated 10 GbE pipe. Like the
// disk constant it lives outside CostModel because sub-nanosecond
// rates cannot be expressed as a time.Duration.
const linkPerBytePicos = 800

// LinkTransferCost returns the serialization time of n bytes on the
// replication link (bandwidth term only; Link adds LinkBaseLatency).
func (m *CostModel) LinkTransferCost(n int) time.Duration {
	return time.Duration(int64(n) * linkPerBytePicos / 1000)
}
