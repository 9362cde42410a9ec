// Package core implements MemSnap: per-thread uCheckpoints over the
// simulated virtual-memory and storage substrates.
//
// The package mirrors the paper's API (Table 4):
//
//	msnap_open    -> Process.Open
//	msnap_persist -> Context.Persist
//	msnap_wait    -> Context.Wait
//
// A Region is a named memory mapping backed by an object in the COW
// object store, mapped at the same virtual address on every open so
// persisted pointers stay valid across crashes. A Context is one
// application thread; MemSnap tracks each Context's dirty set
// individually and Persist writes exactly that set — no other
// thread's uncommitted work — as one atomic uCheckpoint.
package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/mem"
	"memsnap/internal/objstore"
	"memsnap/internal/sim"
	"memsnap/internal/tlb"
	"memsnap/internal/vm"
)

// PageSize is the uCheckpoint granularity.
const PageSize = vm.PageSize

// RegionBase is the virtual address of the first MemSnap region: the
// high end of the address space is reserved for MemSnap mappings so
// every region gets the same address on every open.
const RegionBase uint64 = 0x7000_0000_0000

// RegionSlot is the address-space stride between regions.
const RegionSlot uint64 = 1 << 32 // 4 GiB per region slot

// Flags alter Persist behavior.
type Flags int

const (
	// MSSync makes Persist block until the uCheckpoint is durable
	// (the default).
	MSSync Flags = 1 << iota
	// MSAsync makes Persist return after initiating the IO; use Wait
	// to block on durability.
	MSAsync
	// MSGlobal persists the dirty sets of all threads in the process,
	// not just the caller's (the classic SLS whole-process semantics).
	MSGlobal
)

// System is one simulated machine: physical memory, TLBs, the disk
// array and the object store.
type System struct {
	costs *sim.CostModel
	phys  *mem.PhysMem
	tlbs  *tlb.System
	arr   *disk.Array
	store *objstore.Store

	// procs lists every process created on the machine, for the frame
	// audit (MappedFrames).
	mu    sync.Mutex
	procs []*Process
}

// Options configures NewSystem.
type Options struct {
	Costs *sim.CostModel
	// CPUs is the simulated CPU count (default 24, the paper's dual
	// Xeon 4116).
	CPUs int
	// Disks is the stripe width (default 2).
	Disks int
	// DiskBytesEach is the per-device capacity (default 256 MiB).
	DiskBytesEach int64
}

func (o *Options) fill() {
	if o.Costs == nil {
		o.Costs = sim.DefaultCosts()
	}
	if o.CPUs <= 0 {
		o.CPUs = 24
	}
	if o.Disks <= 0 {
		o.Disks = 2
	}
	if o.DiskBytesEach <= 0 {
		o.DiskBytesEach = 256 << 20
	}
}

// NewSystem formats a fresh machine.
func NewSystem(opts Options) (*System, error) {
	opts.fill()
	arr := disk.NewArray(opts.Costs, opts.Disks, opts.DiskBytesEach)
	store, _, err := objstore.Format(opts.Costs, arr, 0)
	if err != nil {
		return nil, err
	}
	return &System{
		costs: opts.Costs,
		phys:  mem.New(opts.Costs),
		tlbs:  tlb.NewSystem(opts.Costs, opts.CPUs),
		arr:   arr,
		store: store,
	}, nil
}

// Recover builds a machine over an existing array (post-crash boot):
// the object store is recovered from disk and regions can be reopened
// at their original addresses.
func Recover(opts Options, arr *disk.Array, at time.Duration) (*System, time.Duration, error) {
	opts.fill()
	store, done, err := objstore.Open(opts.Costs, arr, at)
	if err != nil {
		return nil, at, err
	}
	return &System{
		costs: opts.Costs,
		phys:  mem.New(opts.Costs),
		tlbs:  tlb.NewSystem(opts.Costs, opts.CPUs),
		arr:   arr,
		store: store,
	}, done, nil
}

// Costs returns the cost model.
func (sys *System) Costs() *sim.CostModel { return sys.costs }

// Array returns the disk array (for stats and crash injection).
func (sys *System) Array() *disk.Array { return sys.arr }

// Phys returns physical memory.
func (sys *System) Phys() *mem.PhysMem { return sys.phys }

// RegionNames lists the regions present in the store.
func (sys *System) RegionNames() []string { return sys.store.Objects() }

// Process is one application process: an address space plus its view
// of the MemSnap regions. Multiprocess applications create several
// processes on one System and share regions (see OpenShared).
type Process struct {
	sys *System
	as  *vm.AddressSpace

	mu      sync.Mutex
	regions map[string]*Region
	// byMapping caches mapping→region resolution for the persist hot
	// path (the old path linearly scanned regions per dirty record).
	byMapping map[*vm.Mapping]*Region
}

// NewProcess creates a process on the system.
func (sys *System) NewProcess() *Process {
	p := &Process{
		sys:       sys,
		as:        vm.NewAddressSpace(sys.costs, sys.phys, sys.tlbs),
		regions:   make(map[string]*Region),
		byMapping: make(map[*vm.Mapping]*Region),
	}
	sys.mu.Lock()
	sys.procs = append(sys.procs, p)
	sys.mu.Unlock()
	return p
}

// MappedFrames counts the distinct physical frames mapped by the
// machine's processes (a frame two processes share counts once). With
// every uCheckpoint retired it equals the allocator's live frames —
// Phys().Stats() TotalFrames minus FreeFrames: a frame the allocator
// holds live that no page table maps was displaced by an in-flight COW
// and never returned.
func (sys *System) MappedFrames() int {
	sys.mu.Lock()
	procs := append([]*Process(nil), sys.procs...)
	sys.mu.Unlock()
	set := make(map[mem.Frame]struct{})
	for _, p := range procs {
		p.as.MappedFrames(set)
	}
	return len(set)
}

// AddressSpace exposes the process's address space.
func (p *Process) AddressSpace() *vm.AddressSpace { return p.as }

// Region is a persistent memory region: a tracked mapping backed by a
// COW object.
type Region struct {
	obj     *objstore.Object
	mapping *vm.Mapping
	addr    uint64
	length  int64

	// shared is the page array used when several processes map the
	// region (PostgreSQL-style shared memory).
	shared []*mem.Page
}

// Addr returns the region's fixed virtual address.
//
//lint:allow unreachable public facade method (memsnap.Region, README "Quickstart")
func (r *Region) Addr() uint64 { return r.addr }

// Len returns the region length in bytes.
func (r *Region) Len() int64 { return r.length }

// Name returns the region name.
func (r *Region) Name() string { return r.obj.Name() }

// Epoch returns the region's current durable epoch.
func (r *Region) Epoch() objstore.Epoch { return r.obj.Epoch() }

// Mapping exposes the underlying vm mapping.
func (r *Region) Mapping() *vm.Mapping { return r.mapping }

// Object exposes the backing store object.
func (r *Region) Object() *objstore.Object { return r.obj }

// regionAddr computes the fixed address for a region from its stable
// directory position.
func (sys *System) regionAddr(name string) uint64 {
	for i, n := range sys.store.Objects() {
		if n == name {
			return RegionBase + uint64(i)*RegionSlot
		}
	}
	return 0
}

// storeBacking pages region contents in from the object store,
// charging the read IO to the faulting thread's clock.
type storeBacking struct {
	obj *objstore.Object
}

// PageIn implements vm.Backing.
func (b storeBacking) PageIn(clk *sim.Clock, pageIdx uint64, dst []byte) {
	var at time.Duration
	if clk != nil {
		at = clk.Now()
	}
	done, err := b.obj.ReadBlock(at, int64(pageIdx), dst)
	if err != nil {
		panic(fmt.Sprintf("core: page-in failed: %v", err))
	}
	if clk != nil {
		clk.AdvanceTo(done)
	}
}

// Open creates or opens a region of the given length (rounded up to a
// page) and maps it at its fixed address. The ctx clock is charged
// for the syscall and any store IO.
func (p *Process) Open(ctx *Context, name string, length int64) (*Region, error) {
	if length <= 0 {
		return nil, fmt.Errorf("core: region %q length %d", name, length)
	}
	if length > int64(RegionSlot) {
		return nil, fmt.Errorf("core: region %q exceeds slot size", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.regions[name]; ok {
		return r, nil
	}
	ctx.th.Clock().Advance(p.sys.costs.SyscallEntry)

	obj, err := p.sys.store.OpenObject(name)
	if err != nil {
		var done time.Duration
		obj, done, err = p.sys.store.CreateObject(ctx.th.Clock().Now(), name, length)
		if err != nil {
			return nil, err
		}
		ctx.th.Clock().AdvanceTo(done)
	}

	pages := (uint64(length) + PageSize - 1) / PageSize
	addr := p.sys.regionAddr(name)
	if addr == 0 {
		return nil, fmt.Errorf("core: region %q has no address", name)
	}
	r := &Region{
		obj:    obj,
		addr:   addr,
		length: length,
		shared: make([]*mem.Page, pages),
	}
	r.mapping = &vm.Mapping{
		Name:        name,
		Start:       addr,
		Pages:       pages,
		Tracked:     true,
		Backing:     storeBacking{obj: obj},
		SharedPages: r.shared,
	}
	if err := p.as.Map(r.mapping); err != nil {
		return nil, err
	}
	p.regions[name] = r
	p.byMapping[r.mapping] = r
	return r, nil
}

// OpenShared maps a region already opened by another process into
// this process at the same address, sharing physical pages.
func (p *Process) OpenShared(ctx *Context, other *Region) (*Region, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.regions[other.Name()]; ok {
		return r, nil
	}
	ctx.th.Clock().Advance(p.sys.costs.SyscallEntry)
	r := &Region{
		obj:    other.obj,
		addr:   other.addr,
		length: other.length,
		shared: other.shared,
	}
	r.mapping = &vm.Mapping{
		Name:        other.Name(),
		Start:       other.addr,
		Pages:       other.mapping.Pages,
		Tracked:     true,
		Backing:     storeBacking{obj: other.obj},
		SharedPages: other.shared,
	}
	if err := p.as.Map(r.mapping); err != nil {
		return nil, err
	}
	p.regions[other.Name()] = r
	p.byMapping[r.mapping] = r
	return r, nil
}

// sortRecordsByAddr orders dirty records for stable, mostly
// sequential store commits. slices.SortFunc does not allocate, unlike
// sort.Slice's interface boxing.
func sortRecordsByAddr(records []vm.DirtyRecord) {
	slices.SortFunc(records, func(a, b vm.DirtyRecord) int {
		switch {
		case a.Addr < b.Addr:
			return -1
		case a.Addr > b.Addr:
			return 1
		}
		return 0
	})
}
