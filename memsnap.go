// Package memsnap is a Go reproduction of "MemSnap uCheckpoints: A
// Data Single Level Store for Fearless Persistence" (ASPLOS 2024).
//
// MemSnap lets an application treat one in-memory dataset as its only
// copy — a data single level store. Programs map named persistent
// regions at fixed virtual addresses, mutate them in place, and call
// Persist to atomically write exactly the pages the calling thread
// dirtied (a uCheckpoint), with no write-ahead log and no file API.
//
// Because the original system lives in the FreeBSD kernel (page-fault
// handling, PTE manipulation, TLB shootdowns, direct NVMe IO), this
// reproduction runs the same design over a simulated machine: all
// region accesses go through a Context, which plays the role of a
// hardware thread and delivers simulated page faults, and all costs
// are charged to deterministic virtual clocks calibrated against the
// paper's measurements. See DESIGN.md for the substitution table.
//
// Basic usage:
//
//	store, _ := memsnap.NewStore(memsnap.Config{})
//	proc := store.NewProcess()
//	ctx := proc.NewContext(0)
//	region, _ := proc.Open(ctx, "mydata", 1<<20)
//	ctx.WriteAt(region, 0, []byte("hello"))
//	epoch, _ := ctx.Persist(region, memsnap.Sync)
//
// After a crash, reopen the store with RecoverStore and map the same
// region: all data from completed uCheckpoints is intact, and
// in-flight ones are invisible — atomicity across memory and storage.
package memsnap

import (
	"time"

	"memsnap/internal/core"
	"memsnap/internal/disk"
	"memsnap/internal/objstore"
	"memsnap/internal/sim"
)

// Re-exported core types. The public API is a thin veneer over
// internal/core so examples, tools and tests share one implementation.
type (
	// Store is a MemSnap machine: memory, TLBs, disks and the COW
	// object store.
	Store = core.System
	// Process is one application process (an address space).
	Process = core.Process
	// Context is one application thread; the unit of dirty-set
	// tracking.
	Context = core.Context
	// Region is a named persistent memory region.
	Region = core.Region
	// Epoch identifies one uCheckpoint of a region.
	Epoch = objstore.Epoch
	// Flags modify Persist.
	Flags = core.Flags
	// PersistBreakdown is the phase timing of a Persist call.
	PersistBreakdown = core.PersistBreakdown
	// CostModel holds the simulation's calibrated cost constants.
	CostModel = sim.CostModel
	// Clock is a virtual clock.
	Clock = sim.Clock
)

// Persist flags (Table 4 of the paper).
const (
	// Sync blocks until the uCheckpoint is durable.
	Sync = core.MSSync
	// Async initiates the IO and returns; use Context.Wait.
	Async = core.MSAsync
	// Global persists every thread's dirty set, not just the
	// caller's.
	Global = core.MSGlobal
)

// PageSize is the tracking and persistence granularity.
const PageSize = core.PageSize

// Config sizes a new Store.
type Config struct {
	// Costs overrides the calibrated cost model (nil = defaults).
	Costs *CostModel
	// CPUs is the simulated CPU count (default 24).
	CPUs int
	// Disks is the stripe width (default 2).
	Disks int
	// DiskBytesEach is the per-device capacity (default 256 MiB).
	DiskBytesEach int64
}

// NewStore formats a fresh MemSnap machine.
func NewStore(cfg Config) (*Store, error) {
	return core.NewSystem(core.Options{
		Costs:         cfg.Costs,
		CPUs:          cfg.CPUs,
		Disks:         cfg.Disks,
		DiskBytesEach: cfg.DiskBytesEach,
	})
}

// RecoverStore reboots a machine from the disks of a previous one —
// the crash-recovery path. It returns the recovered store and the
// virtual time at which recovery finished.
func RecoverStore(cfg Config, arr *disk.Array, at time.Duration) (*Store, time.Duration, error) {
	return core.Recover(core.Options{
		Costs:         cfg.Costs,
		CPUs:          cfg.CPUs,
		Disks:         cfg.Disks,
		DiskBytesEach: cfg.DiskBytesEach,
	}, arr, at)
}

// DefaultCosts returns the calibrated cost model (see DESIGN.md for
// the calibration targets).
//
//lint:allow unreachable public facade API (README "Architecture")
func DefaultCosts() *CostModel { return sim.DefaultCosts() }
